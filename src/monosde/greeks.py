"""Sensitivity estimation: the Bismut-Elworthy-Li weight estimator for
deterministic-coefficient models and a common-random-numbers bump-and-revalue
baseline.

The BEL weight for a payoff at time t is

    w* = sum_{i < t} a(t_i) [sigma(t_i, X_i)^{-1} J_i]^T dW_i,

with a(.) a weight on [0, t] whose discrete sum is renormalized to exactly 1.
The gradient estimate is the Monte Carlo mean of Phi(X_t) w*.  Restricting to
deterministic coefficients keeps the integrand adapted, so the Skorokhod
integral coincides with the Ito sum.

Every estimator here steps each chunk once, as one stacked batch: the base
rows (BEL) and the rows theta +- eps e_k (central difference) share the
chunk's noise.  BEL builds J and w* forward from each StepRecord the kernel
yields, reusing its sigma and tamed denominator, and FD keeps the bumped
states at node t only, so no path values are stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import MCEstimate, TimeGrid, mc_estimate
from .errors import InvalidParameterError, SingularDiffusionError
from .models import ModelSpec
from .solver import SchemeChoice, Stepper, live_paths, run_paths
from .variational import VariationalFactors

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
    def f(x: np.ndarray) -> np.ndarray:
        return x[:, 0]

    return f


def tanh_payoff() -> Callable:
    def f(x: np.ndarray) -> np.ndarray:
        return np.tanh(x[:, 0])

    return f


def digital_payoff(strike: float) -> Callable:
    def f(x: np.ndarray) -> np.ndarray:
        return (x[:, 0] > strike).astype(float)

    return f


@dataclass
class BELConfig:
    """Configuration of the Bismut-Elworthy-Li estimator.

    Requires a square diffusion (m = d) that is invertible along the paths and
    a deterministic coefficient field (adapted integrand).
    """

    payoff: Callable  # (B, d) -> (B,)
    t_index: int
    weight: Callable = None  # a(s, t); defaults to the constant weight

    def weights_on(self, grid: TimeGrid) -> np.ndarray:
        """Discrete weights a_i with sum a_i dt = 1 exactly after renormalization."""
        _check_t_index(self.t_index, grid)
        a_fn = self.weight or constant_weight()
        t = self.t_index * grid.dt
        a = np.array([a_fn(i * grid.dt, t) for i in range(self.t_index)])
        total = float(np.sum(a) * grid.dt)
        if total <= 0:
            raise InvalidParameterError("weight must have positive mass on [0, t]")
        a = a / total
        assert abs(float(np.sum(a) * grid.dt) - 1.0) <= 1e-12
        return a


# ---------------------------------------------------------------------------
# BEL gradient
# ---------------------------------------------------------------------------


@dataclass
class GradientReport:
    estimate: MCEstimate
    method: str
    n_diverged: int


def _check_bel_field(field):
    if field.d != field.m:
        raise InvalidParameterError("BEL requires a square diffusion (m = d)")
    if not field.deterministic:
        raise InvalidParameterError(
            "BEL is restricted to deterministic coefficients (adapted integrand)"
        )


def _check_eps(eps):
    if not (eps > 0):
        raise InvalidParameterError("eps must be > 0")


def _check_t_index(t_index, grid):
    if t_index < 1 or t_index > grid.N:
        raise InvalidParameterError("t_index must be in 1..N")


def _samples(field, grid, scheme, theta, payoff, t_index, inc, a=None, eps=None):
    """Per-path samples of one chunk from one stacked stepping pass.

    theta: (d,) or (B, d), the starts of the chunk's B paths on inc (B, N, m).
    With BEL weights a, the pass steps the base rows and returns
    (Phi(X_t) w*, first_bad) for them; with eps, it also steps the rows
    theta +- eps e_k and returns (central differences (B, d), first_bad of
    either bump).  BEL runs its J and w* recursion on each step's record and
    FD keeps node t_index, so no path values are stored.  Every row runs all
    N steps, so first_bad does not depend on t_index.

    A singular sigma raises SingularDiffusionError after the pass, at the
    first step where one shows: a near-singular sigma on a base path still
    live at the end (diverged paths are masked out of the estimate), or an
    exactly singular d > 1 sigma (no solve) on any path, where the recursion
    stops.
    """
    B, d = inc.shape[0], field.d
    theta = np.broadcast_to(np.asarray(theta, dtype=float).reshape(-1, d), (B, d))
    starts = [theta] if a is not None else []
    if eps is not None:
        for k in range(d):
            bump = np.zeros(d)
            bump[k] = eps
            starts += [theta + bump, theta - bump]
    run = Stepper(field, grid, inc, np.concatenate(starts), scheme)
    N = run.N
    if a is not None:
        # BEL fields are deterministic, so the callbacks read no history rows
        vf = VariationalFactors(run)
        J = np.broadcast_to(np.eye(d), (B, d, d)).copy()
        wstar = np.zeros((B, d))
        singular = np.full(B, N + 1)  # first near-singular step per path
        unsolvable = None  # first step whose sigma has no solve

    samples = []
    # a diverged path's frozen state (up to DIVERGENCE_BOUND) overflows its
    # J and weight, and a zero sigma divides; those paths are masked out
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rec in run:
            i = rec.i
            if i + 1 == t_index:
                node = rec.x_next
            if a is None or i >= t_index or unsolvable is not None:
                continue
            vf.take(rec.head(B))
            if d == 1:
                s = vf.sig[:, 0, 0]
                near = np.abs(s) < 1.0 / _CONDITION_LIMIT
                siginv_j = (J[:, 0, 0] / s)[:, None, None]
            else:
                try:
                    siginv_j = np.linalg.solve(vf.sig, J)
                except np.linalg.LinAlgError:
                    unsolvable = i
                    continue
                # |sigma^{-1} J| > LIMIT |J| bounds |sigma^{-1}| from below,
                # as |sigma| < 1/LIMIT does for d = 1; NaN fails the <= as well
                big = np.max(np.abs(siginv_j), axis=(1, 2))
                near = ~(big <= _CONDITION_LIMIT * np.max(np.abs(J), axis=(1, 2)))
            if near.any():
                np.minimum(singular, np.where(near, i, N + 1), out=singular)
            wstar = wstar + a[i] * np.einsum(
                "bdm,bm->bd", siginv_j.transpose(0, 2, 1), vf.dw
            )
            J = J + vf.amat @ J

        if a is not None:
            first_bad = run.first_bad[:B]
            # recorded steps all precede an unsolvable one
            step = np.min(singular, where=first_bad > N, initial=N + 1)
            if step <= N:
                raise SingularDiffusionError(
                    f"diffusion below 1/{_CONDITION_LIMIT:.0e} at step {step}"
                )
            if unsolvable is not None:
                raise SingularDiffusionError(f"singular diffusion at step {unsolvable}")
            samples += [payoff(node[:B])[:, None] * wstar, first_bad]
    if eps is not None:
        fd0 = 0 if a is None else B  # the first bumped row
        bumped = node[fd0:].reshape(d, 2, B, d)
        grads = np.empty((B, d))
        for k in range(d):
            grads[:, k] = (payoff(bumped[k, 0]) - payoff(bumped[k, 1])) / (2.0 * eps)
        samples += [grads, np.min(run.first_bad[fd0:].reshape(2 * d, B), axis=0)]
    return tuple(samples)


def _report(vals, first_bad, grid, method) -> GradientReport:
    """Reduce per-path samples over the paths that did not diverge."""
    live = live_paths(first_bad, grid.N)
    return GradientReport(mc_estimate(vals[live]), method, int(np.sum(~live)))


def _reports(spec, grid, scheme, payoff, t_index, n_paths, seed, workers, a=None, eps=None):
    """The BEL report (with weights a) and the FD report (with eps), in that
    order, from one stacked pass per chunk that draws the chunk's noise once."""

    def chunk(inc, start):
        return _samples(spec.field, grid, scheme, spec.theta0, payoff, t_index, inc, a, eps)

    parts = run_paths(chunk, grid, spec.m, seed, n_paths, workers)
    reports = []
    if a is not None:
        reports.append(_report(parts[0], parts[1], grid, "bel"))
    if eps is not None:
        reports.append(_report(parts[-2], parts[-1], grid, "fd"))
    return reports


def bel_gradient(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    cfg: BELConfig,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> GradientReport:
    """grad_x E[Phi(X_x(t))] = E[Phi(X_x(t)) w*] by the BEL weight estimator."""
    _check_bel_field(spec.field)
    a = cfg.weights_on(grid)
    (bel,) = _reports(
        spec, grid, scheme, cfg.payoff, cfg.t_index, n_paths, seed, workers, a=a
    )
    return bel


def fd_gradient(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    payoff: Callable,
    t_index: int,
    eps: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> GradientReport:
    """Central-difference gradient at node t_index (1..N) with common random
    numbers, differenced per path before averaging."""
    _check_eps(eps)
    _check_t_index(t_index, grid)
    (fd,) = _reports(spec, grid, scheme, payoff, t_index, n_paths, seed, workers, eps=eps)
    return fd


def bel_fd_gradients(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    cfg: BELConfig,
    eps: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> tuple[GradientReport, GradientReport]:
    """(bel, fd) reports equal to bel_gradient(spec, grid, scheme, cfg, ...)
    and fd_gradient(spec, grid, scheme, cfg.payoff, cfg.t_index, eps, ...),
    from one stacked pass per chunk of the base and bumped rows."""
    _check_bel_field(spec.field)
    _check_eps(eps)
    a = cfg.weights_on(grid)
    bel, fd = _reports(
        spec, grid, scheme, cfg.payoff, cfg.t_index, n_paths, seed, workers, a=a, eps=eps
    )
    return bel, fd
