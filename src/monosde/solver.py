"""Time stepping for the base SDE under super-linear drifts, plus moment and
stability estimators.

Schemes
-------
euler_maruyama      X' = X + b dt + sigma dW
tamed_euler         X' = X + b dt / (1 + dt |b|) + sigma dW
split_step_implicit solve Y = X + b(t', Y) dt by damped Newton, X' = Y + sigma(X) dW

The implicit equation has a unique root whenever dt * L_mono < 1 by the
one-sided Lipschitz property.  Newton stops each path at its own first iterate
within tol, so in every scheme a path's values do not depend on its batch.
Any state with |X| > DIVERGENCE_BOUND or a non-finite entry is tagged diverged
at the first bad step; divergence is never silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    sample_theta,
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
    at their last finite state from first_bad onward, and the field, scheme
    and noise (hist) they were solved with."""

    field: CoefficientField
    scheme: SchemeChoice
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


def simulate_batch(
    field: CoefficientField,
    grid: TimeGrid,
    increments: np.ndarray,
    theta: np.ndarray,
    scheme: SchemeChoice,
) -> SimBatch:
    """Core stepping kernel over a batch of paths.

    increments: (B, N, m); theta: (d,) or (B, d).
    """
    inc = np.asarray(increments, dtype=float)
    B, N, m = inc.shape
    d = field.d
    theta = np.broadcast_to(np.asarray(theta, dtype=float).reshape(-1, d), (B, d))
    if not np.all(np.isfinite(theta)):
        raise InvalidParameterError("theta must be finite")
    if scheme.kind == IMPLICIT:
        _check_implicit_dt(field, grid)

    hist = History(grid, inc)
    dt = grid.dt
    values = np.empty((B, N + 1, d))
    values[:, 0] = theta
    diverged = np.zeros(B, dtype=bool)
    first_bad = np.full(B, N + 1, dtype=np.int64)
    any_diverged = False
    x = theta.copy()

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(N):
            t = i * dt
            dw = inc[:, i]
            if scheme.kind == IMPLICIT:
                sig = field.diffusion(t, hist, x)
                y = _newton_solve(field, t + dt, hist, x, dt, scheme, i)
                x_next = y + np.einsum("bdm,bm->bd", sig, dw)
            else:
                b = field.drift(t, hist, x)
                sig = field.diffusion(t, hist, x)
                if scheme.kind == TAMED:
                    # |b| dt / (1 + dt |b|) < 1 for every drift value, and a
                    # NaN drift reaches the divergence tagging below
                    nb = dt * np.linalg.norm(b, axis=1, keepdims=True)
                    drift_step = b * (dt / (1.0 + nb))
                else:
                    drift_step = b * dt
                x_next = x + drift_step + np.einsum("bdm,bm->bd", sig, dw)

            # NaN fails the <=, so non-finite states are tagged as well
            bad = ~(np.max(np.abs(x_next), axis=1) <= DIVERGENCE_BOUND)
            if any_diverged:
                bad &= ~diverged
            if np.any(bad):
                first_bad[bad] = i + 1
                diverged |= bad
                any_diverged = True
            if any_diverged:
                # freeze diverged paths at their last finite state
                x_next[diverged] = x[diverged]
            x = x_next
            values[:, i + 1] = x

    return SimBatch(field, scheme, grid, values, diverged, first_bad, hist)


def check_noise(w: NoisePath, m: int):
    """Reject a noise path of another dimension than m."""
    if w.m != m:
        raise InvalidParameterError("noise dimension does not match the model")


def simulate_one(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice = SchemeChoice(EULER),
) -> SimBatch:
    """One path of the base SDE as a batch of one, from spec.theta0 on the
    noise w and its grid; raises DivergenceError on blow-up.  Another initial
    condition is another spec: dataclasses.replace(spec, theta0=...)."""
    check_noise(w, spec.m)
    out = simulate_batch(spec.field, w.grid, w.increments[None], spec.theta0, scheme)
    if out.diverged[0]:
        raise DivergenceError(out.first_bad[0])
    return out


def simulate(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice = SchemeChoice(EULER),
) -> StatePath:
    """Simulate one path of the base SDE on the noise w and its grid; raises
    DivergenceError on blow-up."""
    out = simulate_one(spec, w, scheme)
    return StatePath(w.grid, spec.d, out.values[0])


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


@dataclass
class MomentReport:
    estimate: MCEstimate
    p: float
    n_diverged: int
    nonconvergent: bool
    prefix_means: np.ndarray  # running means over n/4, n/2, n prefixes
    max_share: float  # largest sample's share of the total mass


def estimate_sup_moment(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    p: float,
    n_paths: int,
    seed: int,
    theta_sampler=None,
    workers: int = 1,
) -> MomentReport:
    """Monte Carlo estimate of E[ sup_t |X(t)|^p ].

    Diverged paths are excluded from the estimate and counted separately.
    The nonconvergent flag fires when the running mean keeps growing by more
    than one combined stderr over the n/4 -> n/2 -> n prefix ladder, or when
    a single sample carries more than 20% of the total mass; both are
    fingerprints of an infinite-moment (heavy-tailed) target.
    """
    if p < 1:
        raise InvalidParameterError("p must be >= 1")

    def chunk(inc, start):
        if theta_sampler is None:
            theta = spec.theta0
        else:
            theta = sample_theta(theta_sampler, spec.d, seed, start, len(inc))
        out = simulate_batch(spec.field, grid, inc, theta, scheme)
        return sup_norms(out.values) ** p, out.first_bad

    vals, first_bad = run_paths(chunk, grid, spec.m, seed, n_paths, workers)
    live = live_paths(first_bad, grid.N)
    good = vals[live]
    est = mc_estimate(good)

    sizes = [max(2, len(good) // k) for k in (4, 2, 1)]
    prefix_means = np.array([good[:n].mean() for n in sizes])
    prefix_se = [good[:n].std(ddof=1) / math.sqrt(n) for n in sizes]
    grows = [
        prefix_means[i + 1] - prefix_means[i] > math.hypot(prefix_se[i], prefix_se[i + 1])
        for i in range(2)
    ]
    max_share = float(good.max() / good.sum()) if good.sum() > 0 else 0.0
    return MomentReport(
        estimate=est,
        p=p,
        n_diverged=int(np.sum(~live)),
        nonconvergent=all(grows) or max_share > 0.2,
        prefix_means=prefix_means,
        max_share=max_share,
    )


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

    Raises DivergenceError at the earliest step at which either solution of
    any path diverged."""
    theta = np.asarray(theta, dtype=float).reshape(spec.d)
    xi = np.asarray(xi, dtype=float).reshape(spec.d)
    gap = float(np.linalg.norm(xi - theta))
    if gap == 0.0:
        raise InvalidParameterError("theta and xi must differ")

    def chunk(inc, start):
        a = simulate_batch(spec.field, grid, inc, theta, scheme)
        b = simulate_batch(spec.field, grid, inc, xi, scheme)
        # a diverged path's frozen values may overflow; the run raises below
        with np.errstate(over="ignore", invalid="ignore"):
            vals = sup_norms(b.values - a.values) ** p
        return vals, np.minimum(a.first_bad, b.first_bad, out=a.first_bad)

    vals, first_bad = run_paths(chunk, grid, spec.m, seed, n_paths, workers)
    # first_bad is N+1 on paths that never diverged
    if np.any(first_bad <= grid.N):
        raise _earliest_divergence(first_bad)
    return mc_estimate(vals / gap**p)
