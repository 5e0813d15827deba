"""Time stepping for the base SDE under super-linear drifts, plus the
stability estimator.

Schemes
-------
euler_maruyama      X' = X + b dt + sigma dW
tamed_euler         X' = X + b dt / (1 + dt |b|) + sigma dW
split_step_implicit solve Y = X + b(t', Y) dt by damped Newton, X' = Y + sigma(X) dW

The implicit equation has a unique root whenever dt * L_mono < 1 by the
one-sided Lipschitz property.  Newton stops each path at its own first iterate
within tol, so in every scheme a path's values do not depend on its batch.
Any state with |X| > DIVERGENCE_BOUND or a non-finite entry is tagged diverged
at the first bad step; divergence is never silent.  A start beyond the bound
is rejected.

The kernel is a Stepper: iterating it yields one StepRecord per step, holding
what the step evaluated (X_i, sigma, the tamed denominator, dW_i)
and X_{i+1}.  A Stepper may run K variants of its P paths as one batch: K
starts on one noise (theta of K*P rows), or K noise-shifted variants (shifts
(K, N, m), row k*P + p driven by inc[p] + shifts[k], formed step by step, so
no shifted copy of the noise is built).

Each caller keeps only what it reads.  simulate_batch stores every state,
which a path functional such as a Cameron-Martin functional needs.  Every
variational pass reads the records through VariationalFactors.take: J, K, D,
the Malliavin field, F[h] and D^h X along one PathStepper, the greeks pass and
the Gateaux ladder along stacked batches.  stability_ratio and the ladder
fold a running sup over the records instead of storing paths to take it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CHUNK,
    History,
    MCEstimate,
    NoisePath,
    StatePath,
    TimeGrid,
    mc_estimate,
    run_chunks,
    sample_increments,
)
from .errors import DivergenceError, InvalidParameterError, NewtonFailureError
from .models import CoefficientField, ModelSpec

DIVERGENCE_BOUND = 1e150

EULER = "euler_maruyama"
TAMED = "tamed_euler"
IMPLICIT = "split_step_implicit"
SCHEMES = (EULER, TAMED, IMPLICIT)


@dataclass(frozen=True)
class SchemeChoice:
    kind: str = TAMED
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise InvalidParameterError(
                f"unknown scheme {self.kind!r}; choose from {SCHEMES}"
            )
        if not (self.newton_tol > 0):
            raise InvalidParameterError("newton_tol must be > 0")
        if self.newton_max_iter < 1:
            raise InvalidParameterError("newton_max_iter must be >= 1")


@dataclass
class SimBatch:
    """Batched simulation output: values (B, N+1, d) with diverged paths frozen
    at their last finite state from first_bad onward, and the noise (hist)
    they were solved on."""

    grid: TimeGrid
    values: np.ndarray
    diverged: np.ndarray  # (B,) bool
    first_bad: np.ndarray  # (B,) int, N+1 when the path never diverged
    hist: History


def _check_implicit_dt(field: CoefficientField, grid: TimeGrid):
    if field.monotone_const > 0 and grid.dt * field.monotone_const >= 1.0:
        raise InvalidParameterError(
            "split_step_implicit requires dt * L_mono < 1 "
            f"(dt={grid.dt:.3g}, L_mono={field.monotone_const:.3g})"
        )


def _newton_solve(field, t_next, hist, x, dt, scheme, step_index):
    """Solve Y = x + dt b(t_next, Y) with damped Newton, batched over paths.

    Each path stops at its own first iterate within tol, so its root does not
    depend on the other paths of the batch."""
    B, d = x.shape
    eye = np.eye(d)
    y = x.copy()
    tol = scheme.newton_tol
    res = y - x - dt * field.drift(t_next, hist, y)
    norm = np.abs(res).max(axis=1)
    for it in range(scheme.newton_max_iter + 1):
        # A path iterates while its iterate is finite and its residual is not
        # within tol (NaN is not); simulate_batch tags a non-finite iterate.
        active = ~(norm <= tol) & np.isfinite(y).all(axis=1)
        if not active.any():
            return y
        if it == scheme.newton_max_iter:
            raise NewtonFailureError(step_index, np.max(norm[active]), tol)
        jac = eye - dt * field.grad_drift(t_next, hist, y)
        if d == 1:
            # bit-identical to LAPACK's 1x1 solve, without its per-call cost
            step = -res / jac[:, :, 0]
        else:
            step = np.linalg.solve(jac, -res[..., None])[..., 0]
        lam = np.ones((B, 1))
        for halvings in range(31):
            y_try = y + lam * step
            res_try = y_try - x - dt * field.drift(t_next, hist, y_try)
            norm_try = np.abs(res_try).max(axis=1)
            worse = (norm_try > norm) & active
            # once the 30 halvings have run out, the last trial is taken
            if halvings == 30 or not worse.any():
                break
            lam[worse] *= 0.5
        # only active paths take the step
        np.copyto(y, y_try, where=active[:, None])
        np.copyto(res, res_try, where=active[:, None])
        np.copyto(norm, norm_try, where=active)


def tamed_denominator(b: np.ndarray, dt: float) -> np.ndarray:
    """1 + dt |b| per row of the drift b (B, d), shape (B, 1)."""
    # what np.linalg.norm(b, axis=1, keepdims=True) computes, bit for bit
    return 1.0 + dt * np.sqrt(np.add.reduce(b * b, axis=1, keepdims=True))


@dataclass
class StepRecord:
    """What the kernel evaluated on step i, per row of its batch: the state
    x = X_i, the diffusion sig = sigma(t_i, x) (B, d, m), the tamed
    denominator 1 + dt |b(t_i, x)| (B, 1) (None for the other schemes), the
    row increments dw (B, m), and x_next = X_{i+1} with the diverged rows
    frozen at their last finite state."""

    i: int
    x: np.ndarray
    sig: np.ndarray
    denom: Optional[np.ndarray]
    dw: np.ndarray
    x_next: np.ndarray

    def head(self, rows: int) -> "StepRecord":
        """The record of the first rows rows."""
        return StepRecord(self.i, *(
            None if a is None else a[:rows]
            for a in (self.x, self.sig, self.denom, self.dw, self.x_next)
        ))


class Stepper:
    """The stepping kernel over a batch of paths.

    increments: (P, N, m); theta: (d,), (P, d), or (K*P, d) for K variants of
    the P paths (row k*P + p runs path p from theta[k*P + p]).  The variants
    share the noise, or with shifts (K, N, m) variant k runs on the noise
    shifted by shifts[k]: its step i reads inc[:, i] + shifts[k, i]; theta is
    then (d,) or (K*P, d).  Iterating runs the N steps in order and yields
    each step's StepRecord after the divergence tagging; `diverged` and
    `first_bad` (N+1 for a row that never diverged) are final after the last
    step.  `hist` is the noise as the coefficient callbacks read it, one row
    per state.  Iterate once.
    """

    def __init__(
        self,
        field: CoefficientField,
        grid: TimeGrid,
        increments: np.ndarray,
        theta: np.ndarray,
        scheme: SchemeChoice,
        shifts: Optional[np.ndarray] = None,
    ):
        inc = np.asarray(increments, dtype=float)
        P, self.N, m = inc.shape
        K = 1
        if shifts is not None:
            shifts = np.asarray(shifts, dtype=float)
            K = len(shifts)
            if shifts.shape != (K, self.N, m) or K == 0:
                raise InvalidParameterError(
                    f"shifts must have shape (K, {self.N}, {m}), got {shifts.shape}"
                )
        theta = np.asarray(theta, dtype=float).reshape(-1, field.d)
        if len(theta) == 1:
            theta = np.broadcast_to(theta, (K * P, field.d))
        elif P == 0 or len(theta) % P or (shifts is not None and len(theta) != K * P):
            want = "a multiple" if shifts is None else f"{K * P} for {K} shifts"
            raise InvalidParameterError(
                f"theta has {len(theta)} rows for {P} paths; want 1 or {want}"
            )
        # NaN fails the <= as well
        if not np.all(np.abs(theta) <= DIVERGENCE_BOUND):
            raise InvalidParameterError(
                f"theta must be finite with |theta| <= {DIVERGENCE_BOUND:.0e}"
            )
        if scheme.kind == IMPLICIT:
            _check_implicit_dt(field, grid)
        self.field, self.grid, self.scheme, self.theta = field, grid, scheme, theta
        self.variants = len(theta) // P if P else K
        self.hist = History(grid, inc, self.variants, shifts)
        self._inc = inc
        self._shifts = shifts
        self.diverged = np.zeros(len(theta), dtype=bool)
        self.first_bad = np.full(len(theta), self.N + 1, dtype=np.int64)

    def __iter__(self):
        field, scheme, hist = self.field, self.scheme, self.hist
        dt = self.grid.dt
        diverged, first_bad, shifts = self.diverged, self.first_bad, self._shifts
        any_diverged = False
        x = self.theta.copy()
        for i in range(self.N):
            t = i * dt
            dw = self._inc[:, i]
            if shifts is not None:
                # (K, 1, m) + (P, m): row k*P + p is inc[p, i] + shifts[k, i]
                dw = (shifts[:, i, None] + dw).reshape(-1, dw.shape[1])
            elif self.variants > 1:
                dw = np.tile(dw, (self.variants, 1))
            denom = None
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if scheme.kind == IMPLICIT:
                    sig = field.diffusion(t, hist, x)
                    # the root Y becomes X_{i+1} = Y + sigma dW in place
                    x_next = _newton_solve(field, t + dt, hist, x, dt, scheme, i)
                    x_next += np.einsum("bdm,bm->bd", sig, dw)
                else:
                    b = field.drift(t, hist, x)
                    sig = field.diffusion(t, hist, x)
                    if scheme.kind == TAMED:
                        # |b| dt / (1 + dt |b|) < 1 for every drift value, and
                        # a NaN drift reaches the divergence tagging below
                        denom = tamed_denominator(b, dt)
                        drift_step = b * (dt / denom)
                    else:
                        drift_step = b * dt
                    x_next = x + drift_step + np.einsum("bdm,bm->bd", sig, dw)

                # NaN fails the <=, so non-finite states are tagged as well
                bad = ~(np.abs(x_next).max(axis=1) <= DIVERGENCE_BOUND)
            if any_diverged:
                bad &= ~diverged
            if bad.any():
                first_bad[bad] = i + 1
                diverged |= bad
                any_diverged = True
            if any_diverged:
                # freeze diverged paths at their last finite state
                x_next[diverged] = x[diverged]
            yield StepRecord(i, x, sig, denom, dw, x_next)
            x = x_next


def simulate_batch(
    field: CoefficientField,
    grid: TimeGrid,
    increments: np.ndarray,
    theta: np.ndarray,
    scheme: SchemeChoice,
    shifts: Optional[np.ndarray] = None,
) -> SimBatch:
    """The Stepper's batch with every state stored.

    increments: (P, N, m); theta and shifts as for Stepper.
    """
    run = Stepper(field, grid, increments, theta, scheme, shifts)
    values = np.empty((len(run.theta), run.N + 1, field.d))
    values[:, 0] = run.theta
    for rec in run:
        values[:, rec.i + 1] = rec.x_next
    return SimBatch(grid, values, run.diverged, run.first_bad, run.hist)


def check_noise(w: NoisePath, m: int):
    """Reject a noise path of another dimension than m."""
    if w.m != m:
        raise InvalidParameterError("noise dimension does not match the model")


class PathStepper(Stepper):
    """The Stepper of every single-path function: one path from spec.theta0
    on the noise w and its grid.  Iterating keeps its states (`path` once the
    last step ran) and raises DivergenceError (with w.path_index) in place of
    the record of the step at which the path diverges.  Another initial
    condition is another spec: dataclasses.replace(spec, theta0=...)."""

    def __init__(self, spec: ModelSpec, w: NoisePath, scheme: SchemeChoice):
        check_noise(w, spec.m)
        super().__init__(spec.field, w.grid, w.increments[None], spec.theta0, scheme)
        self.path_index = w.path_index
        self.values = np.empty((self.N + 1, spec.d))
        self.values[0] = self.theta[0]

    def __iter__(self):
        for rec in super().__iter__():
            if self.diverged[0]:
                raise DivergenceError(self.first_bad[0], self.path_index)
            self.values[rec.i + 1] = rec.x_next[0]
            yield rec

    @property
    def path(self) -> StatePath:
        return StatePath(self.grid, self.field.d, self.values)


def simulate(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice = SchemeChoice(EULER),
) -> StatePath:
    """Simulate one path of the base SDE on the noise w and its grid; raises
    DivergenceError on blow-up."""
    run = PathStepper(spec, w, scheme)
    for _ in run:
        pass
    return run.path


def run_paths(fn, grid: TimeGrid, m: int, seed: int, n_paths: int,
              workers: int = 1, size: int = CHUNK):
    """The chunked Monte Carlo driver: fn(inc, start) on the (seed, path)
    increments (count, N, m) of paths start..start+count-1, for each fixed
    chunk of size paths; the array fn returns, or each array of the tuple it
    returns, concatenated in path order."""
    if n_paths < 1:
        raise InvalidParameterError("n_paths must be >= 1")
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")

    def chunk(start, count):
        return fn(sample_increments(grid, m, seed, start, count), start)

    parts = run_chunks(chunk, n_paths, workers, size)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def simulate_paths(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    seed: int,
    n_paths: int,
    workers: int = 1,
) -> np.ndarray:
    """Paths 0..n_paths-1 of the base SDE from spec.theta0 on their (seed,
    path) noise, values (n_paths, N+1, d); raises the DivergenceError (with
    its path index) or NewtonFailureError of the first failing path in path
    order."""

    def chunk(inc, start):
        try:
            out = simulate_batch(spec.field, grid, inc, spec.theta0, scheme)
        except NewtonFailureError:
            if len(inc) == 1:
                raise
            # the batch raised for its earliest failing step; one path at a
            # time raises for its first failing path instead
            return np.concatenate([chunk(inc[k:k + 1], start + k) for k in range(len(inc))])
        if np.any(out.diverged):
            k = int(np.argmax(out.diverged))
            raise DivergenceError(out.first_bad[k], start + k)
        return out.values

    return run_paths(chunk, grid, spec.m, seed, n_paths, workers)


def _earliest_divergence(first_bad: np.ndarray) -> DivergenceError:
    """The DivergenceError of the earliest first_bad over paths 0..n-1, with
    the first path that reached it."""
    k = int(np.argmin(first_bad))
    return DivergenceError(first_bad[k], k)


def live_paths(first_bad: np.ndarray, N: int) -> np.ndarray:
    """The mask of the paths that never diverged (first_bad N+1); raises
    DivergenceError at the earliest first_bad when divergence leaves fewer
    than 2 of them for an estimate."""
    live = first_bad > N
    if np.count_nonzero(live) < 2 and not np.all(live):
        raise _earliest_divergence(first_bad)
    return live


def sup_norms(values: np.ndarray) -> np.ndarray:
    """Pathwise sup of |X(t_i)| over the grid, values (B, N+1, d) -> (B,)."""
    return np.max(np.linalg.norm(values, axis=2), axis=1)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def stability_ratio(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    theta: np.ndarray,
    xi: np.ndarray,
    p: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """E[ sup_t |X_xi - X_theta|^p ] / |xi - theta|^p with common random numbers.

    Both solutions of a chunk's paths run as one stacked batch (rows theta,
    then xi), and the sup is folded over the steps.  Raises DivergenceError
    at the earliest step at which either solution of any path diverged, and
    InvalidParameterError, naming p and the first path, when a path's ratio
    leaves the floating-point range."""
    theta = np.asarray(theta, dtype=float).reshape(spec.d)
    xi = np.asarray(xi, dtype=float).reshape(spec.d)
    gap = float(np.linalg.norm(xi - theta))
    if gap == 0.0:
        raise InvalidParameterError("theta and xi must differ")

    def chunk(inc, start):
        P = len(inc)
        starts = np.concatenate([np.broadcast_to(v, (P, spec.d)) for v in (theta, xi)])
        run = Stepper(spec.field, grid, inc, starts, scheme)
        sup = np.linalg.norm(run.theta[P:] - run.theta[:P], axis=-1)
        # a diverged path's frozen values may overflow; the run raises below
        with np.errstate(over="ignore", invalid="ignore"):
            for rec in run:
                x = rec.x_next
                np.maximum(sup, np.linalg.norm(x[P:] - x[:P], axis=-1), out=sup)
            vals = sup ** p
        return vals, run.first_bad.reshape(2, P).min(axis=0)

    vals, first_bad = run_paths(chunk, grid, spec.m, seed, n_paths, workers)
    # first_bad is N+1 on paths that never diverged
    if np.any(first_bad <= grid.N):
        raise _earliest_divergence(first_bad)
    try:
        scale = gap**p
    except OverflowError:  # a Python float power raises where numpy gives inf
        scale = math.inf
    # a path's sup^p or |xi - theta|^p may overflow or underflow to 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = vals / scale
    finite = np.isfinite(ratios)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise InvalidParameterError(
            f"E[sup |X_xi - X_theta|^p] / |xi - theta|^p at p = {p:g} is out of "
            f"floating-point range: path {k} has sup |X_xi - X_theta|^p = "
            f"{vals[k]:.3g} against |xi - theta|^p = {scale:.3g}"
        )
    return mc_estimate(ratios)
