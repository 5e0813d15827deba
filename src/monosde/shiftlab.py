"""Numerical realization of the measure-shift toolkit: Doleans-Dade
exponentials, the Cameron-Martin identity check, the Gateaux difference-
quotient ladder, and the convergence-in-probability (exceedance) diagnostic.

The Cameron-Martin identity E[F(w + h)] = E[F(w) E(hdot)(T)] is exact for the
discrete Gaussian increments as well, so its z-score is scheme-independent.
Convergence in probability is operationalized as exceedance frequencies
P[ sup-error > delta ] at fixed thresholds.

Both estimators take a direction h on the simulation grid (else
InvalidParameterError), and leave out of their statistics, and count, each
path on which one of the solutions compared diverged.

Every solution an estimator compares is a noise-shifted variant of the base
path, X(w + eps h), so each chunk is stepped once as one stacked batch of the
solver's Stepper: the base variant runs on the zero shift and each other
variant on its shift eps h, all on the chunk's one noise draw (common random
numbers).  The Cameron-Martin check stores the stacked values, because its
path functional reads whole paths.  The ladder stores no path: it steps
D^h X along the base variant of each step record and folds each rung's sup
error into a running max.

Path functionals are batched: a functional maps solved path values of shape
(B, N+1, d) to per-path reals (B,); terminal_value and clipped_sup_norm
build the common ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    CameronMartinPath,
    MCEstimate,
    NoisePath,
    TimeGrid,
    mc_estimate,
    paired_z_score,
)
from .errors import InvalidParameterError
from .models import ModelSpec
from .solver import (
    SchemeChoice, Stepper, live_paths, run_paths, simulate_batch, sup_norms,
)
from .malliavin import directional_step
from .smallmat import norm
from .variational import VariationalFactors


# ---------------------------------------------------------------------------
# Functionals of a batch of paths: (B, N+1, d) -> (B,)
# ---------------------------------------------------------------------------


def terminal_value() -> Callable:
    """F = X_0(T): reads component 0 of the terminal state only."""
    def f(values: np.ndarray) -> np.ndarray:
        return values[:, -1, 0]

    return f


def clipped_sup_norm(cap: float = 10.0) -> Callable:
    """F = min(sup_t |X(t)|, cap), |.| the Euclidean norm of all d components."""
    def f(values: np.ndarray) -> np.ndarray:
        return np.minimum(sup_norms(values), cap)

    return f


# ---------------------------------------------------------------------------
# Doleans-Dade exponential
# ---------------------------------------------------------------------------


def _log_dd(increments: np.ndarray, h: CameronMartinPath) -> np.ndarray:
    """log E(hdot)(T) per path of increments (B, N, m) at the grid's horizon:
    sum hdot dW - 1/2 sum |hdot|^2 dt."""
    dens = h.density
    lin = np.einsum("bnm,nm->b", increments, dens)
    return lin - 0.5 * float(np.sum(dens**2)) * h.grid.dt


def doleans_dade(w: NoisePath, h: CameronMartinPath) -> float:
    """E(hdot)(T) = exp(sum_{i<N} hdot_i dW_i - 1/2 sum |hdot_i|^2 dt) at the
    grid's horizon T = t_N."""
    h.check_on(w.grid, w.m)
    return float(np.exp(_log_dd(w.increments[None], h)[0]))


def _effective_sample_size(weights: np.ndarray) -> float:
    """(sum w)^2 / sum w^2 of nonnegative weights (Kong 1992); 0 when every
    weight is 0, NaN when one is not finite."""
    top = np.max(weights)
    if top == 0.0:
        return 0.0
    with np.errstate(invalid="ignore"):
        v = weights / top  # scaled so that the squares cannot overflow
        return float(np.sum(v) ** 2 / np.sum(v * v))


# ---------------------------------------------------------------------------
# Cameron-Martin identity check
# ---------------------------------------------------------------------------


@dataclass
class CameronMartinReport:
    lhs: MCEstimate  # E[F(w + h)] from shifted simulations
    rhs: MCEstimate  # E[F(w) E(hdot)(T)] on unshifted noise
    z_score: float  # |mean paired difference| / its stderr (common random numbers)
    n_paths: int
    n_diverged: int


def cameron_martin_check(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    h: CameronMartinPath,
    functional: Callable,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> CameronMartinReport:
    """Both legs of E[F(w+h)] = E[F(w) E(hdot)(T)] with common random numbers.

    The shift uses eps = 1 (the identity is exact for any fixed h); the
    z-score is computed from per-path differences, which is the sharp CRN
    statistic.  The base and shifted solutions of a chunk are one stacked
    batch.  A path whose base or shifted solution diverged is left out and
    counted; DivergenceError is raised when fewer than 2 paths are left.
    InvalidParameterError is raised when the Doleans-Dade weights of the live
    paths have an effective sample size below 2: h is then too large for the
    identity to be checked with this many paths.
    """
    h.check_on(grid, spec.m)
    shift = h.density * grid.dt
    shifts = np.stack([np.zeros_like(shift), shift])

    def chunk(inc, start):
        out = simulate_batch(spec.field, grid, inc, spec.theta0, scheme, shifts)
        dd = np.exp(_log_dd(inc, h))
        lhs = functional(out.values[1])
        rhs = functional(out.values[0]) * dd
        return lhs, rhs, dd, out.first_bad.min(axis=0)

    lhs, rhs, dd, first_bad = run_paths(chunk, grid, spec.m, seed, n_paths, workers)
    live = live_paths(first_bad, grid.N)
    lhs, rhs = lhs[live], rhs[live]
    lhs_est, rhs_est = mc_estimate(lhs), mc_estimate(rhs)
    ess = _effective_sample_size(dd[live])
    if not ess >= 2.0:
        raise InvalidParameterError(
            f"h is too large to check at this path count: the Doleans-Dade "
            f"weights have effective sample size {ess:.3g} < 2"
        )
    return CameronMartinReport(
        lhs=lhs_est,
        rhs=rhs_est,
        z_score=paired_z_score(lhs - rhs),
        n_paths=int(len(lhs)),
        n_diverged=int(np.sum(~live)),
    )


# ---------------------------------------------------------------------------
# Gateaux difference-quotient ladder
# ---------------------------------------------------------------------------


@dataclass
class QuotientLadder:
    """Per-epsilon statistics of Delta_eps = sup_i |(X^eps_i - X_i)/eps - D^hX_i|."""

    epsilons: np.ndarray  # (k,), strictly decreasing
    deltas: np.ndarray  # (j,)
    mean_error: np.ndarray  # (k,)
    stderr: np.ndarray  # (k,)
    exceedance: np.ndarray  # (k, j): P[Delta_eps > delta]
    diverged: np.ndarray  # (k,) paths left out: the base or eps-shifted solution diverged
    n_paths: int

    def rows(self):
        """(epsilon, mean_error, stderr, delta, exceedance_prob, diverged) rows."""
        out = []
        for a, eps in enumerate(self.epsilons):
            for b, dlt in enumerate(self.deltas):
                out.append(
                    (
                        float(eps),
                        float(self.mean_error[a]),
                        float(self.stderr[a]),
                        float(dlt),
                        float(self.exceedance[a, b]),
                        int(self.diverged[a]),
                    )
                )
        return out


def _ladder_samples(spec, grid, scheme, h, eps, inc):
    """Per-path Delta_eps and first_bad (N+1 when neither the base nor the
    eps-shifted solution diverged), both (P, k), of the paths on inc (P, N, m)
    from one stacked stepping pass."""
    P, d = len(inc), spec.d
    shift = h.density * grid.dt
    # variant 0 is the base path; variant 1 + a runs on the noise w + eps_a h
    shifts = np.concatenate([np.zeros_like(shift)[None], eps[:, None, None] * shift])
    run = Stepper(spec.field, grid, inc, spec.theta0, scheme, shifts)
    vf = VariationalFactors(run)
    dh = np.zeros((d, P))  # batch-last, as directional_step steps it
    errs = np.zeros((len(eps), P))  # node 0 contributes 0
    # a diverged path's quotient may overflow; it is left out of the statistics
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in run:
            dh = directional_step(vf, rec, h, dh)
            x = rec.x_next
            quot = (x[1:] - x[0]) / eps[:, None, None]
            np.maximum(errs, norm(quot - dh.T), out=errs)
            del quot  # freed before the next step's Newton temporaries
    return errs.T, np.minimum(run.first_bad[0], run.first_bad[1:]).T


def gateaux_ladder(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    h: CameronMartinPath,
    epsilons: Sequence[float],
    deltas: Sequence[float],
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> QuotientLadder:
    """Difference-quotient convergence experiment with common random numbers.

    For each path the base solution X, the direct directional derivative
    D^h X, and every shifted solution X(w + eps h) share one noise draw: a
    chunk is one stacked batch of the base variant (zero shift) and a
    variant per eps, D^h X steps along the base variant of each step record,
    and Delta_eps is folded into a running max, so no path is stored.
    For each eps, a path whose base or shifted solution diverged is left out
    of the statistics and counted; DivergenceError is raised when fewer than
    2 paths are left.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if len(eps) < 1 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise InvalidParameterError("epsilons must be positive and strictly decreasing")
    dlt = np.asarray(list(deltas), dtype=float)
    h.check_on(grid, spec.m)
    if h.norm_sq() == 0.0:
        raise InvalidParameterError("direction h must be nonzero")

    def chunk(inc, start):
        return _ladder_samples(spec, grid, scheme, h, eps, inc)

    errs, first_bad = run_paths(chunk, grid, spec.m, seed, n_paths, workers)

    mean = np.empty(len(eps))
    se = np.empty(len(eps))
    exc = np.empty((len(eps), len(dlt)))
    diverged = np.empty(len(eps), dtype=np.int64)
    for a in range(len(eps)):
        live = live_paths(first_bad[:, a], grid.N)
        row = errs[live, a]
        est = mc_estimate(row)
        mean[a], se[a] = est.mean[0], est.stderr[0]
        exc[a] = [(row > t).mean() for t in dlt]
        diverged[a] = np.count_nonzero(~live)
    return QuotientLadder(
        epsilons=eps,
        deltas=dlt,
        mean_error=mean,
        stderr=se,
        exceedance=exc,
        diverged=diverged,
        n_paths=n_paths,
    )
