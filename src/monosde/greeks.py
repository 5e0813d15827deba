"""Sensitivity estimation: the Bismut-Elworthy-Li weight estimator for
deterministic-coefficient models and a common-random-numbers bump-and-revalue
baseline.

The BEL weight for a payoff at the grid's horizon t = t_N is

    w* = sum_{i < N} a(t_i) [sigma(t_i, X_i)^{-1} J_i]^T dW_i,

with a(.) a weight on [0, t] whose discrete sum is renormalized to exactly 1.
The gradient estimate is the Monte Carlo mean of Phi(X_t) w*.  Restricting to
deterministic coefficients keeps the integrand adapted, so the Skorokhod
integral coincides with the Ito sum.  Any admissible weight gives the same
gradient, which is what comparing two weights on one noise checks.

`gradients` is the one estimator: any number of BEL weights and the
central difference at eps, from one stacked stepping pass per chunk.  The
base variant (BEL) and the variants theta +- eps e_k (central difference)
share the chunk's noise.  BEL builds J and one w* per weight forward from
each StepRecord the kernel yields, reusing its sigma and tamed denominator,
and FD reads the bumped states of the last step only, so no path values are
stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import MCEstimate, TimeGrid, mc_estimate
from .errors import InvalidParameterError, SingularDiffusionError
from .models import ModelSpec
from .smallmat import contract
from .solver import SchemeChoice, Stepper, live_paths, run_paths, solve_paths
from .variational import VariationalFactors, central_bumps

_CONDITION_LIMIT = 1e12


# ---------------------------------------------------------------------------
# Weights and payoffs
# ---------------------------------------------------------------------------


def constant_weight() -> Callable[[float, float], float]:
    """a(s) = 1/t on [0, t], the classical uniform weight."""
    return lambda s, t: 1.0 / t


def linear_weight() -> Callable[[float, float], float]:
    """a(s) = 2 s / t^2, an alternative admissible weight."""
    return lambda s, t: 2.0 * s / t**2


def identity_payoff() -> Callable:
    """Phi(x) = x_0: reads component 0 of X(t) only."""
    def f(x: np.ndarray) -> np.ndarray:
        return x[:, 0]

    return f


def tanh_payoff() -> Callable:
    """Phi(x) = tanh(x_0): reads component 0 of X(t) only."""
    def f(x: np.ndarray) -> np.ndarray:
        return np.tanh(x[:, 0])

    return f


def digital_payoff(strike: float) -> Callable:
    """Phi(x) = 1{x_0 > strike}: reads component 0 of X(t) only."""
    def f(x: np.ndarray) -> np.ndarray:
        return (x[:, 0] > strike).astype(float)

    return f


# ---------------------------------------------------------------------------
# BEL gradient
# ---------------------------------------------------------------------------


@dataclass
class GradientReport:
    estimate: MCEstimate
    method: str
    n_diverged: int


def _weight_table(weights, grid) -> np.ndarray:
    """The discrete weights (L, N) of the L weight functions a(s, t) at the
    horizon t = N dt: row l holds a_l(t_i, t) for i < N, renormalized so
    that sum_i a_l(t_i) dt = 1."""
    t = grid.N * grid.dt  # not grid.T: (T / N) N need not equal T
    rows = []
    for a_fn in weights:
        a = np.array([a_fn(i * grid.dt, t) for i in range(grid.N)], dtype=float)
        total = float(np.sum(a) * grid.dt)
        # NaN fails the > as well
        if not (np.all(np.isfinite(a)) and math.isfinite(total) and total > 0):
            raise InvalidParameterError(
                "a weight must be finite with positive finite mass on [0, t]"
            )
        rows.append(a / total)
    return np.array(rows)


def _samples(field, grid, scheme, theta, payoff, inc, a=None, eps=None):
    """Per-path samples of one chunk from one stacked stepping pass, for the
    payoff at the last node t = t_N.

    theta: (d,) or (B, d), the starts of the chunk's B paths on inc (B, N, m).
    With the weight table a (L, N), the pass steps the base variant and
    returns (Phi(X_t) w*_l (B, L, d), first_bad) for it, one w* per weight;
    with eps, it also steps the variants theta +- eps e_k and returns
    (central differences (B, d), first_bad of either bump).  BEL runs its J
    and w* recursion on each step's record and FD reads the last step's
    states, so no path values are stored.

    One rule covers a (near) singular sigma: SingularDiffusionError at its
    first step on a base path live at the end, or masked out with a path
    that diverged.
    """
    B, d = inc.shape[0], field.d
    # variant 0 is the base when BEL runs; the last 2d are the central difference's
    bumps = [np.zeros((1, d))] if a is not None else []
    if eps is not None:
        bumps.append(central_bumps(d, eps))
    run = Stepper(field, grid, inc, theta + np.concatenate(bumps)[:, None], scheme)
    N = run.N
    if a is not None:
        # BEL fields are deterministic, so the callbacks read no history rows
        vf = VariationalFactors(run)
        # J and w* are batch-last, (d, d, B) and (L, d, B); a_steps[i] holds
        # the L weights of step i side by side
        J = np.broadcast_to(vf.eye, (d, d, B)).copy()
        wstar = np.zeros((len(a), d, B))
        a_steps = np.ascontiguousarray(a.T)
        singular = np.full(B, N + 1)  # first near-singular step per path

    samples = []
    # a diverged path's frozen state overflows its J and weight, and a
    # singular sigma gives NaN or inf; those paths are masked out
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rec in run:
            if a is None:
                continue
            i = rec.i
            vf.take(rec)
            # the small solve takes rows: sigma (B, d, d) and J as (B, d, d)
            siginv_j = solve_paths(rec.sig[0], J.transpose(2, 0, 1)).transpose(1, 2, 0)
            if d == 1:
                near = np.abs(vf.sig[0, 0]) < 1.0 / _CONDITION_LIMIT
            else:
                # |sigma^{-1} J| > LIMIT |J| bounds |sigma^{-1}| from below,
                # as |sigma| < 1/LIMIT does for d = 1; NaN fails the <= as well
                big = contract("ij...->...", np.abs(siginv_j), add=np.maximum)
                top = contract("ij...->...", np.abs(J), add=np.maximum)
                near = ~(big <= _CONDITION_LIMIT * top)
            if near.any():
                np.minimum(singular, np.where(near, i, N + 1), out=singular)
            # e = (sigma^{-1} J)^T dW
            e = contract("jk...,j...->k...", siginv_j, vf.dw)
            wstar = wstar + a_steps[i][:, None, None] * e
            J = J + contract("ij...,jk...->ik...", vf.amat, J)
        node = rec.x_next  # X_N (K, B, d), diverged paths frozen

        if a is not None:
            first_bad = run.first_bad[0]
            step = np.min(singular, where=first_bad > N, initial=N + 1)
            if step <= N:
                raise SingularDiffusionError(
                    f"diffusion below 1/{_CONDITION_LIMIT:.0e} at step {step}"
                )
            samples += [(payoff(node[0]) * wstar).transpose(2, 0, 1), first_bad]
    if eps is not None:
        bumped = node[-2 * d:]  # the last 2d variants
        grads = np.empty((B, d))
        for k in range(d):
            grads[:, k] = (payoff(bumped[k]) - payoff(bumped[d + k])) / (2.0 * eps)
        samples += [grads, np.min(run.first_bad[-2 * d:], axis=0)]
    return tuple(samples)


def _report(vals, first_bad, grid, method) -> GradientReport:
    """Reduce per-path samples over the paths that did not diverge."""
    live = live_paths(first_bad, grid.N)
    return GradientReport(mc_estimate(vals[live]), method, int(np.sum(~live)))


def gradients(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    payoff: Callable,
    n_paths: int,
    seed: int,
    workers: int = 1,
    *,
    weights: Sequence[Callable] = (),
    eps: Optional[float] = None,
) -> tuple[GradientReport, ...]:
    """grad_x E[Phi(X_x(t))] at the horizon t = t_N: one "bel" report per
    weight function a(s, t) in weights, in order, then the "fd" report of
    the central difference with common random numbers when eps is given.

    BEL needs a square diffusion (m = d), invertible along the paths, and
    deterministic coefficients (adapted integrand).  FD differences each
    path before averaging.  Each chunk is stepped once, as one stacked batch
    of the base variant and the bumped ones on one noise draw, so every
    report equals the one a run with that weight (or eps) alone gives."""
    if not weights and eps is None:
        raise InvalidParameterError("gradients needs weights, eps or both")
    field = spec.field
    if weights and field.d != field.m:
        raise InvalidParameterError("BEL requires a square diffusion (m = d)")
    if weights and not field.deterministic:
        raise InvalidParameterError(
            "BEL is restricted to deterministic coefficients (adapted integrand)"
        )
    if eps is not None and not (eps > 0):
        raise InvalidParameterError("eps must be > 0")
    a = _weight_table(weights, grid) if weights else None

    def chunk(inc, start):
        return _samples(field, grid, scheme, spec.theta0, payoff, inc, a, eps)

    parts = run_paths(chunk, grid, spec.m, seed, n_paths, workers)
    reports = [_report(parts[0][:, l], parts[1], grid, "bel") for l in range(len(weights))]
    if eps is not None:
        reports.append(_report(parts[-2], parts[-1], grid, "fd"))
    return tuple(reports)
