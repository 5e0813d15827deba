"""Sensitivity estimation: the Bismut-Elworthy-Li weight estimator for
deterministic-coefficient models, a common-random-numbers bump-and-revalue
baseline, and the Skorokhod-as-Ito integral for adapted integrands.

The BEL weight for a payoff at time t is

    w* = sum_{i < t} a(t_i) [sigma(t_i, X_i)^{-1} J_i]^T dW_i,

with a(.) a weight on [0, t] whose discrete sum is renormalized to exactly 1.
The gradient estimate is the Monte Carlo mean of Phi(X_t) w*.  Restricting to
deterministic coefficients keeps the integrand adapted, so the Skorokhod
integral coincides with the Ito sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import MCEstimate, NoisePath, TimeGrid, mc_estimate
from .errors import (
    InvalidParameterError,
    NonAdaptedIntegrandError,
    SingularDiffusionError,
)
from .models import ModelSpec
from .solver import SchemeChoice, live_paths, run_paths, simulate_batch
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
        if self.t_index < 1 or self.t_index > grid.N:
            raise InvalidParameterError("t_index must be in 1..N")
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
# Skorokhod integral, adapted case
# ---------------------------------------------------------------------------


def skorokhod_adapted(
    integrand: np.ndarray, w: NoisePath, t_index: int, adapted: bool = True
) -> np.ndarray:
    """delta(u) for an adapted integrand = the left-point Ito sum.

    integrand: (steps, d, m) with row i depending only on information up to
    t_i (declared by the caller).  Returns sum_{i < t_index} u_i dW_i in R^d.
    """
    if not adapted:
        raise NonAdaptedIntegrandError(
            "the adapted Skorokhod integral requires an adapted integrand"
        )
    u = np.asarray(integrand, dtype=float)
    if u.ndim == 1:
        u = u[:, None, None]
    if u.ndim != 3 or u.shape[0] < t_index or u.shape[2] != w.m:
        raise InvalidParameterError("integrand must have shape (>=t_index, d, m)")
    if not (0 <= t_index <= w.grid.N):
        raise InvalidParameterError("t_index out of range")
    return np.einsum("ndm,nm->d", u[:t_index], w.increments[:t_index])


# ---------------------------------------------------------------------------
# BEL gradient
# ---------------------------------------------------------------------------


@dataclass
class GradientReport:
    estimate: MCEstimate
    method: str
    n_diverged: int


def _check_live_diffusion(bad, live, step):
    """Raise when a live path's diffusion is near-singular; diverged paths are
    masked out of the estimate, so their rows are not checked."""
    if np.any(bad) and np.any(bad & live):
        raise SingularDiffusionError(
            f"diffusion below 1/{_CONDITION_LIMIT:.0e} at step {step}"
        )


def _bel_weights_batch(out, cfg, a):
    """Accumulate w* = sum a_i (sigma_i^{-1} J_i)^T dW_i over one solved batch.

    Only live paths are checked for a near-singular sigma: the frozen state of
    a diverged path may overflow J."""
    B = out.values.shape[0]
    live = ~out.diverged
    d = out.field.d
    eye = np.eye(d)
    vf = VariationalFactors(out)
    J = np.broadcast_to(eye, (B, d, d)).copy()
    wstar = np.zeros((B, d))
    for i in range(cfg.t_index):
        vf.load(i)
        sig = vf.sig  # (B, d, m); m = d here
        if d == 1:
            s = sig[:, 0, 0]
            _check_live_diffusion(np.abs(s) < 1.0 / _CONDITION_LIMIT, live, i)
            siginv_j = (J[:, 0, 0] / s)[:, None, None]
        else:
            try:
                siginv_j = np.linalg.solve(sig, J)
            except np.linalg.LinAlgError:
                raise SingularDiffusionError(f"singular diffusion at step {i}") from None
            # |sigma^{-1} J| > LIMIT |J| bounds |sigma^{-1}| from below, as
            # |sigma| < 1/LIMIT does for d = 1; NaN fails the <= as well
            big = np.max(np.abs(siginv_j), axis=(1, 2))
            _check_live_diffusion(
                ~(big <= _CONDITION_LIMIT * np.max(np.abs(J), axis=(1, 2))), live, i
            )
        wstar = wstar + a[i] * np.einsum(
            "bdm,bm->bd", siginv_j.transpose(0, 2, 1), vf.dw
        )
        J = J + vf.amat @ J
    return wstar


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


def _bel_samples(spec, grid, scheme, cfg, a, inc):
    """Per-path BEL samples Phi(X_t) w* and first divergence steps for one chunk."""
    out = simulate_batch(spec.field, grid, inc, spec.theta0, scheme)
    # diverged paths stay frozen at up to DIVERGENCE_BOUND, so their weights
    # overflow; _report masks those paths out
    with np.errstate(over="ignore", invalid="ignore"):
        wstar = _bel_weights_batch(out, cfg, a)
        phi = cfg.payoff(out.values[:, cfg.t_index])
        return phi[:, None] * wstar, out.first_bad


def _fd_samples(spec, grid, scheme, payoff, t_index, eps, inc):
    """Per-path central differences and first divergence steps (of either
    bump) for one chunk."""
    count, d = inc.shape[0], spec.d
    grads = np.empty((count, d))
    for k in range(d):
        bump = np.zeros(d)
        bump[k] = eps
        up = simulate_batch(spec.field, grid, inc, spec.theta0 + bump, scheme)
        dn = simulate_batch(spec.field, grid, inc, spec.theta0 - bump, scheme)
        grads[:, k] = (
            payoff(up.values[:, t_index]) - payoff(dn.values[:, t_index])
        ) / (2.0 * eps)
        # folded into up's own array: under glibc malloc a new array kept
        # past the chunk pins freed heap, +1.7 MB peak RSS at 8192 x 256
        bad = np.minimum(up.first_bad, dn.first_bad, out=up.first_bad)
        first_bad = bad if k == 0 else np.minimum(first_bad, bad, out=first_bad)
    return grads, first_bad


def _report(vals, first_bad, grid, method) -> GradientReport:
    """Reduce per-path samples over the paths that did not diverge."""
    live = live_paths(first_bad, grid.N)
    return GradientReport(mc_estimate(vals[live]), method, int(np.sum(~live)))


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

    def chunk(inc, start):
        return _bel_samples(spec, grid, scheme, cfg, a, inc)

    return _report(*run_paths(chunk, grid, spec.m, seed, n_paths, workers), grid, "bel")


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
    """Central-difference gradient with common random numbers, differenced per
    path before averaging."""
    _check_eps(eps)

    def chunk(inc, start):
        return _fd_samples(spec, grid, scheme, payoff, t_index, eps, inc)

    return _report(*run_paths(chunk, grid, spec.m, seed, n_paths, workers), grid, "fd")


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
    from one pass that draws each chunk's noise once for both estimators."""
    _check_bel_field(spec.field)
    _check_eps(eps)
    a = cfg.weights_on(grid)

    def chunk(inc, start):
        # the BEL SimBatch is released before the FD simulations start
        bel = _bel_samples(spec, grid, scheme, cfg, a, inc)
        fd = _fd_samples(spec, grid, scheme, cfg.payoff, cfg.t_index, eps, inc)
        return bel + fd

    bel_vals, bel_bad, fd_vals, fd_bad = run_paths(
        chunk, grid, spec.m, seed, n_paths, workers
    )
    return _report(bel_vals, bel_bad, grid, "bel"), _report(fd_vals, fd_bad, grid, "fd")
