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
pins them.  chunk_size sizes the chunks of solver.run_paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError

#: The memory a chunk's increments and row state may take, in bytes.
CHUNK_BYTES = 6 * 2**20
#: The row state a stacked pass keeps per path beyond its increments, in bytes
#: (about 0.5 KB for the greeks pass and 0.9 KB for the Gateaux ladder).
PATH_STATE = 1024
#: The fewest paths a chunk of a run with more paths holds, whatever N: below
#: it each step's fixed interpreter cost is paid for too few rows.
MIN_CHUNK = 1024


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
    if not (N >= 1 and N % 1 == 0):  # false for nan; inf % 1 is nan
        raise InvalidParameterError(f"grid.N must be an integer >= 1, got {N!r}")
    return TimeGrid(float(T), int(N))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _freeze_field(obj, name: str, shape: tuple, nonfinite: str):
    """Replace the array field name of the frozen dataclass obj by a
    read-only float copy, after checking its shape and that it is finite
    (nonfinite is the message of the InvalidParameterError otherwise)."""
    a = np.asarray(getattr(obj, name), dtype=float)
    if a.shape != shape:
        raise DimensionMismatchError(f"{name} shape {a.shape} != {shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameterError(nonfinite)
    object.__setattr__(obj, name, _readonly(a))


def partial_sums(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """The running sums of a along axis from 0: entry i along that axis,
    which is one longer than a's, is the sum of a's first i entries."""
    shape = list(a.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    np.cumsum(a, axis=axis, out=out[(slice(None),) * axis + (slice(1, None),)])
    return out


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One realization of m-dimensional Brownian increments on a grid, with
    the index of its (seed, path_index) stream when it was drawn from one."""

    grid: TimeGrid
    m: int
    increments: np.ndarray  # (N, m), increment i ~ Normal(0, dt I_m)
    path_index: Optional[int] = None

    def __post_init__(self):
        _freeze_field(self, "increments", (self.grid.N, self.m), "noise increments must be finite")

    def brownian(self) -> np.ndarray:
        """Cumulative path W(t_i), shape (N + 1, m), W(0) = 0."""
        return partial_sums(self.increments)


@dataclass(frozen=True, eq=False)
class CameronMartinPath:
    """Piecewise-constant density hdot of a Cameron-Martin direction h.

    h(t) is the running integral of the density, so h(0) = 0 by construction.
    """

    grid: TimeGrid
    m: int
    density: np.ndarray  # (N, m)

    def __post_init__(self):
        _freeze_field(self, "density", (self.grid.N, self.m), "hdot must be finite")

    @classmethod
    def constant(cls, grid: TimeGrid, value: float, m: int = 1) -> "CameronMartinPath":
        return cls(grid, m, np.full((grid.N, m), float(value)))

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
        _freeze_field(
            self, "values", (self.grid.N + 1, self.d),
            "StatePath values must be finite; diverged paths raise DivergenceError",
        )

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True, eq=False)
class MCEstimate:
    """Monte Carlo mean with standard error."""

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


def _seed_sequence(seed: int, path_index: int) -> np.random.SeedSequence:
    """The SeedSequence of the (seed, path_index) Brownian stream."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(path_index,))


def _hash_multipliers(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < n: the running multiplier of
    SeedSequence's hash, which does not depend on the data hashed."""
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# SeedSequence's hash with its pool of 4 words.  Hash call k of mix_entropy
# xors with _HASH_A[k] and multiplies by _HASH_A[k + 1]; the seed's words take
# calls 0..15 and the spawn-key word, the path index, calls 16..19, one per
# pool word.  Output word i of generate_state does the same with _HASH_B[i],
# _HASH_B[i + 1].
_HASH_A = _hash_multipliers(0x43B0D7E5, 0x931E8875, 21)
_HASH_B = _hash_multipliers(0x8B51F9DD, 0x58F38DED, 5)


def _philox_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Philox keys (count, 2) of the streams (seed, start + k), k < count.

    Row k equals _seed_sequence(seed, start + k).generate_state(2,
    np.uint64).  The path indices are hashed into the seed's pool for all
    rows and all pool words in one vectorised uint32 pass.
    """
    if seed >= 1 << 128 or start + count > 1 << 32:
        # more than 4 seed words or a 2-word path index: another entropy layout
        keys = [_seed_sequence(seed, start + k).generate_state(2, np.uint64)
                for k in range(count)]
        return np.array(keys, dtype=np.uint64).reshape(count, 2)
    # the seed hashed into the pool: numpy pads a spawned seed's words with
    # zeros to the pool size, which hashes as an unspawned seed's missing words
    pool = np.random.SeedSequence(int(seed)).pool
    word = np.arange(start, start + count, dtype=np.uint32)[:, None]
    h = (word ^ _HASH_A[16:20]) * _HASH_A[17:21]
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
    is the (seed, start + k) Brownian stream of the module docstring."""
    _check_streams(seed, start, count)
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    out = np.empty((count, grid.N, m))
    for row, gen in zip(out, _keyed_generators(_philox_keys(seed, start, count))):
        gen.standard_normal(out=row)
    out *= math.sqrt(grid.dt)
    return out


def sample_noise(grid: TimeGrid, m: int, seed: int, path_index: int = 0) -> NoisePath:
    """Draw N independent Normal(0, dt I_m) increments for one path."""
    return NoisePath(grid, m, sample_increments(grid, m, seed, path_index, 1)[0], path_index)


# ---------------------------------------------------------------------------
# History: the noise-prefix view handed to coefficient callbacks
# ---------------------------------------------------------------------------


class History:
    """Read-only view of a batch of Brownian paths for coefficient callbacks.

    Callbacks receive the full object together with the current time t and may
    only use information up to t (progressive measurability is a documented
    contract, asserted statistically by model tests).  Cached cumulatives make
    running Ito integrals O(1) per step.

    The batch is K = variants runs of the P paths inc (P, N, m), flattened as
    a solver.Stepper flattens its (K, P) states: row r is path r % P of
    variant r // P and reads inc[r % P], plus shifts[r // P] when shifted
    (shifts (K, N, m)).  dw(i) is step i of that noise as the kernel steps it.
    `rows` (B,) lists the batch rows that a callback's x rows stand for: x row
    j is batch row rows[j], and rows is arange(K P) for a whole batch.
    take(idx) is the history of rows[idx] alone, on the same noise, which the
    kernel hands a callback it evaluates on those rows only; so a field that
    reads the noise must index it by the rows it is given.  increments,
    brownian and cum_ito hold the history's own rows, each built on first use
    (the whole history of one unshifted variant reads inc itself, uncopied).
    """

    def __init__(self, grid: TimeGrid, increments: np.ndarray, variants: int = 1,
                 shifts: Optional[np.ndarray] = None, _rows: Optional[np.ndarray] = None):
        self.grid = grid
        self._inc = np.asarray(increments, dtype=float)  # (P, N, m)
        self._shifts = shifts
        self.variants = variants if shifts is None else len(shifts)
        self.m = self._inc.shape[2]
        # a take's rows are given
        self.rows = np.arange(self.variants * len(self._inc)) if _rows is None else _rows
        self.B = len(self.rows)
        self._is_inc = _rows is None and shifts is None and self.variants == 1
        self._ito = {}

    @classmethod
    def from_path(cls, w: NoisePath) -> "History":
        return cls(w.grid, w.increments[None])

    def take(self, idx) -> "History":
        """The history of rows[idx] alone (idx an index array, mask or slice)."""
        return History(self.grid, self._inc, self.variants, self._shifts, self.rows[idx])

    def _noise(self) -> np.ndarray:
        """The increments of the rows, (B, N, m)."""
        if self._is_inc:
            return self._inc
        P = len(self._inc)
        inc = self._inc[self.rows % P]
        if self._shifts is not None:
            inc += self._shifts[self.rows // P]
        return inc

    def dw(self, i: int) -> np.ndarray:
        """Step i's increments of the batch's P paths, (1, P, m) when the
        variants share them, else (K, P, m): inc[:, i] + shifts[k, i]."""
        # one contiguous copy for all variants: inc[:, i] strides by N m entries
        dw = self._inc[None, :, i].copy()
        if self._shifts is None:
            return dw
        return self._shifts[:, i, None] + dw

    @cached_property
    def increments(self) -> np.ndarray:
        """dW per row, shape (B, N, m)."""
        return self._noise()

    @cached_property
    def brownian(self) -> np.ndarray:
        """W(t_i) per row, shape (B, N + 1, m)."""
        return partial_sums(self._noise(), axis=1)

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
            self._ito[key] = partial_sums(np.einsum("bnm,nm->bn", self._noise(), g), axis=1)
        return self._ito[key]


# ---------------------------------------------------------------------------
# Chunk sizing
# ---------------------------------------------------------------------------


def chunk_size(N: int, m: int, n_paths: int, workers: int) -> int:
    """Paths per chunk of a run of n_paths paths of N steps of m-dimensional
    noise: as many as CHUNK_BYTES holds at 8 N m bytes of increments plus
    PATH_STATE per path, at least MIN_CHUNK, and at most ceil(n_paths /
    workers), so that every worker gets a chunk."""
    fit = max(MIN_CHUNK, CHUNK_BYTES // (8 * N * m + PATH_STATE))
    return min(fit, -(-n_paths // workers))


# ---------------------------------------------------------------------------
# Text output
# ---------------------------------------------------------------------------


def format_lines(lead: str, templates: list, values: np.ndarray) -> str:
    """lead + template % fields for each template (built once per grid) in
    turn, the fields read in order from values, in one join and one %-call.
    '%.17g' writes a double exactly as '{:.17g}'.format does."""
    return lead.join(["", *templates]) % tuple(values.ravel().tolist())
