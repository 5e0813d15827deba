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
from .errors import DivergenceError, InvalidParameterError
from .models import ModelSpec
from .solver import (
    DIVERGENCE_BOUND, SchemeChoice, live_paths, run_paths, simulate_batch, sup_norms,
)
from .malliavin import _directional_batch


# ---------------------------------------------------------------------------
# Functionals of a batch of paths: (B, N+1, d) -> (B,)
# ---------------------------------------------------------------------------


def terminal_value() -> Callable:
    def f(values: np.ndarray) -> np.ndarray:
        return values[:, -1, 0]

    return f


def clipped_sup_norm(cap: float = 10.0) -> Callable:
    def f(values: np.ndarray) -> np.ndarray:
        return np.minimum(sup_norms(values), cap)

    return f


# ---------------------------------------------------------------------------
# Doleans-Dade exponential
# ---------------------------------------------------------------------------


def _log_dd(increments: np.ndarray, h: CameronMartinPath, t_index: int) -> np.ndarray:
    """log E(hdot)(t) per path: sum hdot dW - 1/2 sum |hdot|^2 dt."""
    dens = h.density[:t_index]
    dt = h.grid.dt
    lin = np.einsum("bnm,nm->b", increments[:, :t_index], dens)
    return lin - 0.5 * float(np.sum(dens**2)) * dt


def doleans_dade(w: NoisePath, h: CameronMartinPath, t_index: int) -> float:
    """E(hdot)(t_index) = exp(sum_{i<t} hdot_i dW_i - 1/2 sum |hdot_i|^2 dt)."""
    h.check_on(w.grid, w.m)
    if not (0 <= t_index <= w.grid.N):
        raise InvalidParameterError("t_index out of range")
    return float(np.exp(_log_dd(w.increments[None], h, t_index)[0]))


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
    statistic.  A path whose base or shifted solution diverged is left out
    and counted; DivergenceError is raised when fewer than 2 paths are left.
    """
    h.check_on(grid, spec.m)
    shift = h.density * grid.dt

    def chunk(inc, start):
        base = simulate_batch(spec.field, grid, inc, spec.theta0, scheme)
        shifted = simulate_batch(spec.field, grid, inc + shift, spec.theta0, scheme)
        dd = np.exp(_log_dd(inc, h, grid.N))
        lhs = functional(shifted.values)
        rhs = functional(base.values) * dd
        return lhs, rhs, np.minimum(base.first_bad, shifted.first_bad, out=base.first_bad)

    lhs, rhs, first_bad = run_paths(chunk, grid, spec.m, seed, n_paths, workers)
    live = live_paths(first_bad, grid.N)
    lhs, rhs = lhs[live], rhs[live]
    return CameronMartinReport(
        lhs=mc_estimate(lhs),
        rhs=mc_estimate(rhs),
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
    D^h X, and every shifted solution X(w + eps h) share one noise draw.
    For each eps, a path whose base or shifted solution diverged is left out
    of the statistics and counted; DivergenceError is raised when fewer than
    2 paths are left.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if len(eps) < 1 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise InvalidParameterError("epsilons must be positive and strictly decreasing")
    dlt = np.asarray(list(deltas), dtype=float)
    if h.norm_sq() == 0.0:
        raise InvalidParameterError("direction h must be nonzero")
    shift = h.density * grid.dt

    def chunk(inc, start):
        base = simulate_batch(spec.field, grid, inc, spec.theta0, scheme)
        errs = np.empty((len(inc), len(eps)))
        first_bad = np.empty((len(inc), len(eps)), dtype=np.int64)
        # a diverged path's quotient may overflow; it is left out below
        with np.errstate(over="ignore", invalid="ignore"):
            dh = _directional_batch(base, h)
            for a, e in enumerate(eps):
                bumped = simulate_batch(
                    spec.field, grid, inc + e * shift, spec.theta0, scheme
                )
                quot = (bumped.values - base.values) / e
                errs[:, a] = sup_norms(quot - dh)
                np.minimum(base.first_bad, bumped.first_bad, out=first_bad[:, a])
        return errs, first_bad

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


# ---------------------------------------------------------------------------
# Gronwall-in-probability shadow
# ---------------------------------------------------------------------------


@dataclass
class GronwallShadow:
    amplitudes: np.ndarray
    deltas: np.ndarray
    exceedance: np.ndarray  # (k, j): P[ sup |U_n| > delta ]


def gronwall_shadow(
    amplitudes: Sequence[float],
    deltas: Sequence[float],
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> GronwallShadow:
    """Forced monotone test system U(t) = A(t) + int f(U) ds + int g(U) dW with
    f(u) = u - u^3 and g(u) = u / 2, driven by the deterministic forcing
    A(t) = amp * sin(2 pi t / T).  As the forcing amplitude (its sup norm)
    goes to zero the exceedance P[ sup |U| > delta ] must go to zero.
    """
    amps = np.asarray(list(amplitudes), dtype=float)
    dlt = np.asarray(list(deltas), dtype=float)
    t_nodes = grid.nodes
    forcing = np.sin(2.0 * np.pi * t_nodes / grid.T)
    dforce = np.diff(forcing)
    dt = grid.dt

    def chunk(inc, start):
        inc = inc[..., 0]
        sups = np.empty((len(inc), len(amps)))
        with np.errstate(over="ignore", invalid="ignore"):
            for a, amp in enumerate(amps):
                u = np.zeros(len(inc))
                smax = np.zeros(len(inc))
                for i in range(grid.N):
                    u = u + amp * dforce[i] + (u - u**3) * dt + 0.5 * u * inc[:, i]
                    np.maximum(smax, np.abs(u), out=smax)
                    # NaN fails the <=, so non-finite states raise as well
                    if not np.all(smax <= DIVERGENCE_BOUND):
                        raise DivergenceError(i + 1)
                sups[:, a] = smax
        return sups

    sups = run_paths(chunk, grid, 1, seed, n_paths, workers)
    exc = np.array([[(sups[:, a] > t).mean() for t in dlt] for a in range(len(amps))])
    return GronwallShadow(amps, dlt, exc)
