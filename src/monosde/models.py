"""Coefficient fields (drift, diffusion, gradients, noise-derivatives of the
coefficients) and the model zoo, including closed-form oracles.

Callback conventions
--------------------
All callbacks are pure and take rows x (B, d), one state per batch row that
hist.rows stands for (len(x) == hist.B):

    drift(t, hist, x)                   ->  (B, d)
    diffusion(t, hist, x)               ->  (B, d, m)
    grad_drift(t, hist, x)              ->  (B, d, d)     [d b_i / d x_j]
    grad_diffusion(t, hist, x)          ->  (B, d, m, d)  [d sigma_ij / d x_k]
    mall_drift(s_vals, t, hist, x)      ->  (B, k, d, m), s_vals (k,); or broadcastable
    mall_diffusion(s_vals, t, hist, x)  ->  (B, k, d, m, m); or broadcastable to it

hist, a core.History, is those rows' noise.  U = mall_drift and V =
mall_diffusion are D_s b(t, x) and D_s sigma(t, x) at x = X(t), and 0 for
s > t; a field that declares neither is deterministic and reads no hist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import History, NoisePath, TimeGrid, make_grid, partial_sums, sample_noise
from .errors import (
    InvalidParameterError,
    NoClosedFormError,
    OutOfDomainError,
    UnknownModelError,
)


@dataclass
class CoefficientField:
    d: int
    m: int
    drift: Callable
    diffusion: Callable
    grad_drift: Callable
    grad_diffusion: Callable
    mall_drift: Optional[Callable] = None  # U(s, t, hist, x)
    mall_diffusion: Optional[Callable] = None  # V(s, t, hist, x)
    monotone_const: float = 0.0  # one-sided Lipschitz constant of the drift
    lip_diffusion: float = 0.0  # Lipschitz constant of the diffusion

    @property
    def deterministic(self) -> bool:
        """True when the field declares no noise derivative U or V."""
        return self.mall_drift is None and self.mall_diffusion is None


@dataclass
class ClosedForm:
    """Closed-form oracles evaluated from the noise path, left-point discretized.

    Each fn takes batched increments (B, N, m) plus the grid; indices are node
    indices.  state/jacobian return (B, d) / (B, d, d); malliavin returns
    (B, d, m).
    """

    state: Optional[Callable] = None  # (inc, grid, t_idx)
    jacobian: Optional[Callable] = None  # (inc, grid, t_idx)
    malliavin: Optional[Callable] = None  # (inc, grid, s_idx, t_idx)


@dataclass
class ModelSpec:
    name: str
    field: CoefficientField
    params: dict
    theta0: np.ndarray
    closed_form: Optional[ClosedForm] = None
    probe_bounds: tuple = (-3.0, 3.0)  # domain on which the declared constants hold

    @property
    def d(self) -> int:
        return self.field.d

    @property
    def m(self) -> int:
        return self.field.m


# ---------------------------------------------------------------------------
# Scalar model helper (d = m = 1)
# ---------------------------------------------------------------------------


def _scalar_field(
    b,
    db,
    sigma,
    dsigma,
    monotone_const,
    lip_diffusion,
    U=None,
    V=None,
):
    """Build a CoefficientField from scalar numpy-vectorized u -> f(u) maps.

    b, db, sigma, dsigma take (t, hist, u) with u of any shape and broadcast.
    """

    def drift(t, hist, x):
        return b(t, hist, x[..., 0])[..., None]

    def diffusion(t, hist, x):
        return sigma(t, hist, x[..., 0])[..., None, None]

    def grad_drift(t, hist, x):
        return db(t, hist, x[..., 0])[..., None, None]

    def grad_diffusion(t, hist, x):
        return dsigma(t, hist, x[..., 0])[..., None, None, None]

    return CoefficientField(
        d=1,
        m=1,
        drift=drift,
        diffusion=diffusion,
        grad_drift=grad_drift,
        grad_diffusion=grad_diffusion,
        mall_drift=U,
        mall_diffusion=V,
        monotone_const=monotone_const,
        lip_diffusion=lip_diffusion,
    )


def _const(value):
    def f(t, hist, u):
        return np.full_like(np.asarray(u, dtype=float), value)

    return f


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _gbm_closed_form(x0, mu, sig):
    def state(inc, grid, t_idx):
        w = partial_sums(inc[..., 0], axis=1)[:, t_idx]
        t = t_idx * grid.dt
        return (x0 * np.exp((mu - 0.5 * sig**2) * t + sig * w))[:, None]

    def jacobian(inc, grid, t_idx):
        return (state(inc, grid, t_idx) / x0)[..., None]

    def malliavin(inc, grid, s_idx, t_idx):
        if s_idx > t_idx:
            return np.zeros((inc.shape[0], 1, 1))
        return (sig * state(inc, grid, t_idx))[..., None]

    return ClosedForm(state, jacobian, malliavin)


def _ou_closed_form(x0, kappa, sig):
    def state(inc, grid, t_idx):
        # x0 e^{-kappa t} + sig * sum_{k<i} e^{-kappa (t - t_k)} dW_k
        t = t_idx * grid.dt
        tk = np.arange(t_idx) * grid.dt
        kern = np.exp(-kappa * (t - tk))
        val = x0 * np.exp(-kappa * t) + sig * inc[:, :t_idx, 0] @ kern
        return val[:, None]

    def jacobian(inc, grid, t_idx):
        t = t_idx * grid.dt
        return np.full((inc.shape[0], 1, 1), np.exp(-kappa * t))

    def malliavin(inc, grid, s_idx, t_idx):
        if s_idx > t_idx:
            return np.zeros((inc.shape[0], 1, 1))
        val = sig * np.exp(-kappa * (t_idx - s_idx) * grid.dt)
        return np.full((inc.shape[0], 1, 1), val)

    return ClosedForm(state, jacobian, malliavin)


def step_function_values(grid: TimeGrid, low: float, high: float, t_break: float):
    """g at the left nodes: low for t < t_break, high otherwise."""
    t = grid.left_times
    return np.where(t < t_break, low, high)


def random_sigma_parts(inc: np.ndarray, grid: TimeGrid, g_vals: np.ndarray):
    """Shared cumulatives for the explicit-solution example, all (B, N+1).

    Returns (W, E, Gw, S) where E_r = exp(t_r/2 - W_r),
    Gw_r = sum_{u<r} g_u dW_u and S_i = sum_{r<i} E_r (dW_r - dt).
    """
    dt = grid.dt
    w = partial_sums(inc[..., 0], axis=1)
    t = grid.nodes
    e = np.exp(0.5 * t[None, :] - w)
    gw = partial_sums(inc[..., 0] * g_vals[None, :], axis=1)
    s = partial_sums(e[:, :-1] * (inc[..., 0] - dt), axis=1)
    return w, e, gw, s


def random_sigma_state_values(inc: np.ndarray, grid: TimeGrid, g_vals: np.ndarray):
    """Closed-form state of the explicit-solution example at all nodes, (B, N+1).

    Variation of constants for dX = (X + int_0^t g dW) dW, X(0) = 1:
        X(t) = J(t) [1 + int_0^t J(r)^{-1} (int_0^r g dW) (dW(r) - dr)],
    with J(t) = exp(W(t) - t/2).  Verified by Ito's formula; same structure as
    the explicit Malliavin display below.
    """
    dt = grid.dt
    w, e, gw, _ = random_sigma_parts(inc, grid, g_vals)
    integ = partial_sums(e[:, :-1] * gw[:, :-1] * (inc[..., 0] - dt), axis=1)
    return np.exp(w - 0.5 * grid.nodes[None, :]) * (1.0 + integ)


def random_sigma_malliavin_lattice(
    inc: np.ndarray,
    grid: TimeGrid,
    g_vals: np.ndarray,
    s_indices: np.ndarray,
    t_indices: np.ndarray,
):
    """Closed-form D_s X(t) over a lattice, shape (B, ks, kt); zero for s > t.

    D_s X(t) = J_s(t) [X(s) + int_0^s g dW + g(s) (int_s^t J_s(r)^{-1} dW(r)
                        - int_s^t J_s(r)^{-1} dr)].
    """
    s_idx = np.asarray(s_indices, dtype=np.int64)
    t_idx = np.asarray(t_indices, dtype=np.int64)
    w, e, gw, s_cum = random_sigma_parts(inc, grid, g_vals)
    x = random_sigma_state_values(inc, grid, g_vals)
    t_s = s_idx * grid.dt
    t_t = t_idx * grid.dt
    gs = g_vals[np.minimum(s_idx, grid.N - 1)]
    js = np.exp(
        (w[:, t_idx][:, None, :] - w[:, s_idx][:, :, None])
        - 0.5 * (t_t[None, :] - t_s[:, None])[None]
    )
    bracket = (
        x[:, s_idx][:, :, None]
        + gw[:, s_idx][:, :, None]
        + gs[None, :, None]
        * (s_cum[:, t_idx][:, None, :] - s_cum[:, s_idx][:, :, None])
        / e[:, s_idx][:, :, None]
    )
    out = js * bracket
    out[:, t_s[:, None] > t_t[None, :] + 1e-12] = 0.0
    return out


def _random_sigma_closed_form(g_func):
    def state(inc, grid, t_idx):
        return random_sigma_state_values(inc, grid, g_func(grid))[:, t_idx][:, None]

    def jacobian(inc, grid, t_idx):
        w = partial_sums(inc[..., 0], axis=1)[:, t_idx]
        t = t_idx * grid.dt
        return np.exp(w - 0.5 * t)[:, None, None]

    def malliavin(inc, grid, s_idx, t_idx):
        return random_sigma_malliavin_lattice(inc, grid, g_func(grid), [s_idx], [t_idx])

    return ClosedForm(state, jacobian, malliavin)


# ---------------------------------------------------------------------------
# Zoo: a builder takes the parameters as zoo_lookup resolved them (every
# declared name, each a finite float) and checks only its own domain.
# ---------------------------------------------------------------------------


def _build_gbm(p):
    mu, sig, x0 = p["mu"], p["sigma"], p["x0"]
    f = _scalar_field(
        b=lambda t, h, u: mu * u,
        db=_const(mu),
        sigma=lambda t, h, u: sig * u,
        dsigma=_const(sig),
        monotone_const=max(mu, 0.0),
        lip_diffusion=abs(sig),
    )
    return ModelSpec("gbm", f, p, np.array([x0]), closed_form=_gbm_closed_form(x0, mu, sig))


def _build_ou(p):
    kappa, sig, x0 = p["kappa"], p["sigma"], p["x0"]
    if kappa <= 0:
        raise OutOfDomainError("parameter kappa must be > 0")
    f = _scalar_field(
        b=lambda t, h, u: -kappa * u,
        db=_const(-kappa),
        sigma=_const(sig),
        dsigma=_const(0.0),
        monotone_const=0.0,
        lip_diffusion=0.0,
    )
    return ModelSpec("ou", f, p, np.array([x0]), closed_form=_ou_closed_form(x0, kappa, sig))


def _build_ginzburg_landau(p):
    # dX = (eta X - X^3) dt + sigma X dW.  Powers above 2 are written as
    # products: numpy's u**3 calls pow, which takes about 3x as long (60x
    # once some u < 0) and whose SIMD kernel rounds differently on different
    # CPUs, while a product rounds the same everywhere (u**2 is numpy's
    # exact square).
    eta, sig = p["eta"], p["sigma"]
    f = _scalar_field(
        b=lambda t, h, u: eta * u - u * u * u,
        db=lambda t, h, u: eta - 3.0 * u**2,
        sigma=lambda t, h, u: sig * u,
        dsigma=_const(sig),
        monotone_const=eta,
        lip_diffusion=abs(sig),
    )
    return ModelSpec("ginzburg_landau", f, p, np.array([p["x0"]]))


def _build_verhulst(p):
    # dX = (lam X - X^2) dt + sigma X dW; one-sided Lipschitz on x >= 0 only
    lam, sig = p["lam"], p["sigma"]
    if p["x0"] < 0:
        raise OutOfDomainError("verhulst initial condition must be >= 0")
    f = _scalar_field(
        b=lambda t, h, u: lam * u - u**2,
        db=lambda t, h, u: lam - 2.0 * u,
        sigma=lambda t, h, u: sig * u,
        dsigma=_const(sig),
        monotone_const=lam,
        lip_diffusion=abs(sig),
    )
    return ModelSpec("verhulst", f, p, np.array([p["x0"]]), probe_bounds=(0.0, 3.0))


def _build_quintic(p):
    # b(x) = x - x^5 with constant diffusion; the powers are products, as in
    # _build_ginzburg_landau
    f = _scalar_field(
        b=lambda t, h, u: u - (u * u) * (u * u) * u,
        db=lambda t, h, u: 1.0 - 5.0 * ((u * u) * (u * u)),
        sigma=_const(p["sigma"]),
        dsigma=_const(0.0),
        monotone_const=1.0,
        lip_diffusion=0.0,
    )
    return ModelSpec("quintic", f, p, np.array([p["x0"]]))


def _build_wright_fisher_like(p):
    # b = -x, sigma = (x^2 - 1)^2 inside [-1, 1], 0 outside; paths started in
    # [-1, 1] stay there, so the flat extension is never active.
    if not (-1.0 <= p["x0"] <= 1.0):
        raise OutOfDomainError(
            "wright_fisher_like initial condition must lie in [-1, 1]"
        )

    def sigma(t, h, u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) <= 1.0, (u**2 - 1.0) ** 2, 0.0)

    def dsigma(t, h, u):
        u = np.asarray(u, dtype=float)
        return np.where(np.abs(u) <= 1.0, 4.0 * u * (u**2 - 1.0), 0.0)

    f = _scalar_field(
        b=lambda t, h, u: -np.asarray(u, dtype=float),
        db=_const(-1.0),
        sigma=sigma,
        dsigma=dsigma,
        monotone_const=0.0,
        lip_diffusion=8.0 / (3.0 * np.sqrt(3.0)),
    )
    return ModelSpec(
        "wright_fisher_like", f, p, np.array([p["x0"]]), probe_bounds=(-1.0, 1.0)
    )


def _build_random_sigma_example(p):
    # sigma(t, w, x) = x + int_0^t g dW, g a step function, and b = 0, so the
    # field declares V alone.  x0 = 1: the explicit solution is stated for it.
    g_low, g_high, break_frac = p["g_low"], p["g_high"], p["g_break_frac"]
    if not (0.0 < break_frac < 1.0):
        raise OutOfDomainError("g_break_frac must lie in (0, 1)")

    def g_func(grid: TimeGrid):
        return step_function_values(grid, g_low, g_high, break_frac * grid.T)

    def sigma(t, hist, u):
        g_vals = g_func(hist.grid)
        ito = hist.cum_ito("random_sigma_g", g_vals)
        return np.asarray(u, dtype=float) + ito[:, hist.idx(t)]

    def V(s_vals, t, hist, x):
        # V(s, t) = g(s) 1_{s < t}; progressively measurable in t.
        s = np.atleast_1d(np.asarray(s_vals, dtype=float))
        g_vals = g_func(hist.grid)
        idx = np.clip(np.rint(s / hist.grid.dt).astype(int), 0, hist.grid.N - 1)
        vals = np.where(s < t, g_vals[idx], 0.0)
        return vals[:, None, None, None]

    f = _scalar_field(
        b=_const(0.0),
        db=_const(0.0),
        sigma=sigma,
        dsigma=_const(1.0),
        monotone_const=0.0,
        lip_diffusion=1.0,
        V=V,
    )
    return ModelSpec(
        "random_sigma_example", f, p, np.array([1.0]),
        closed_form=_random_sigma_closed_form(g_func),
    )


#: name -> (builder, {parameter: default}); the defaults declare the names.
_ZOO = {
    "gbm": (_build_gbm, {"mu": 0.05, "sigma": 0.2, "x0": 1.0}),
    "ou": (_build_ou, {"kappa": 1.0, "sigma": 0.5, "x0": 1.0}),
    "ginzburg_landau": (_build_ginzburg_landau, {"eta": 1.0, "sigma": 1.0, "x0": 1.0}),
    "verhulst": (_build_verhulst, {"lam": 1.0, "sigma": 1.0, "x0": 1.0}),
    "quintic": (_build_quintic, {"sigma": 1.0, "x0": 1.0}),
    "wright_fisher_like": (_build_wright_fisher_like, {"x0": 0.0}),
    "random_sigma_example": (
        _build_random_sigma_example, {"g_low": 1.0, "g_high": 2.0, "g_break_frac": 0.5}
    ),
}

ZOO_NAMES = tuple(sorted(_ZOO))


def zoo_lookup(name: str, params: Optional[dict] = None) -> ModelSpec:
    """The zoo model `name` built with `params` over its defaults; an unknown
    or non-finite parameter is an InvalidParameterError."""
    if name not in _ZOO:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {', '.join(ZOO_NAMES)}"
        )
    build, defaults = _ZOO[name]
    p = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise InvalidParameterError(
                f"model {name} has no parameter {key!r}; parameters: {', '.join(defaults)}"
            )
        p[key] = float(value)
        if not np.isfinite(p[key]):
            raise InvalidParameterError(
                f"model {name} parameter {key} must be a finite number, got {value!r}"
            )
    return build(p)


# ---------------------------------------------------------------------------
# Assumption probes
# ---------------------------------------------------------------------------


@dataclass
class ProbeReport:
    n_probes: int
    max_onesided: float
    max_diffusion: float
    declared_monotone: float
    declared_lip_diffusion: float
    monotone_ok: bool
    diffusion_ok: bool

    @property
    def passed(self) -> bool:
        return self.monotone_ok and self.diffusion_ok


def uniform_sampler(lo: float, hi: float, d: int = 1):
    def sampler(gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.uniform(lo, hi, size=(n, d))

    return sampler


_SLACK = 1e-9


def probe_assumptions(
    field: CoefficientField,
    sampler,
    n_probes: int = 1000,
    seed: int = 0,
) -> ProbeReport:
    """Statistically probe the one-sided-Lipschitz and diffusion-Lipschitz bounds
    at probe times in [0, 1].

    sampler(gen, n) draws probe points (n, d).  A violated bound is reported,
    never raised.
    """
    if n_probes < 1:
        raise InvalidParameterError("n_probes must be >= 1")
    # a short noise history so random fields have something to look at: one
    # row per probe point, each reading path 0's noise, as the callbacks'
    # rows read their own noise in a run; its draw checks the seed
    grid = make_grid(1.0, 64)
    hist = History(grid, sample_noise(grid, field.m, seed, 0).increments[None], n_probes)
    # the probe points' own stream, apart from path 0's Brownian stream (0,)
    seq = np.random.SeedSequence(seed, spawn_key=(0, 2))
    gen = np.random.Generator(np.random.Philox(seq))
    x = sampler(gen, n_probes)
    y = sampler(gen, n_probes)
    same = np.all(x == y, axis=1)
    y[same] += 1e-6  # probes need x != y
    times = gen.uniform(0.0, 1.0, size=n_probes)
    times = grid.left_times[
        np.clip((times / grid.dt).astype(int), 0, grid.N - 1)
    ]

    max_one = -np.inf
    max_dif = 0.0
    for t in np.unique(times):
        sel = times == t
        xs, ys, h = x[sel], y[sel], hist.take(sel)
        bx = field.drift(t, h, xs)
        by = field.drift(t, h, ys)
        sx = field.diffusion(t, h, xs)
        sy = field.diffusion(t, h, ys)
        diff = xs - ys
        nrm2 = np.sum(diff**2, axis=1)
        one = np.sum(diff * (bx - by), axis=1) / nrm2
        dif = np.sqrt(np.sum((sx - sy) ** 2, axis=(1, 2)) / nrm2)
        max_one = max(max_one, float(one.max()))
        max_dif = max(max_dif, float(dif.max()))

    lm, ls = field.monotone_const, field.lip_diffusion
    return ProbeReport(
        n_probes=n_probes,
        max_onesided=max_one,
        max_diffusion=max_dif,
        declared_monotone=lm,
        declared_lip_diffusion=ls,
        monotone_ok=max_one <= lm + _SLACK * max(1.0, abs(lm)),
        diffusion_ok=max_dif <= ls + _SLACK * max(1.0, abs(ls)),
    )


# ---------------------------------------------------------------------------
# Closed-form evaluation
# ---------------------------------------------------------------------------


def eval_closed_form(
    spec: ModelSpec, kind: str, w: NoisePath, s: float = None, t: float = None
) -> np.ndarray:
    """Evaluate the model's closed-form oracle on one noise path.

    kind: 'state' | 'jacobian' | 'malliavin'; s and t are grid times.
    """
    cf = spec.closed_form
    if cf is None:
        raise NoClosedFormError(f"model {spec.name} has no closed form")
    if kind not in ("state", "jacobian", "malliavin"):
        raise InvalidParameterError(f"unknown closed-form kind {kind!r}")
    oracle = getattr(cf, kind)
    if oracle is None:
        raise NoClosedFormError(f"{spec.name}: no closed-form {kind}")
    inc, grid = w.increments[None], w.grid
    if kind != "malliavin":
        return oracle(inc, grid, grid.index_of(t))[0]
    s_idx, t_idx = grid.index_of(s), grid.index_of(t)
    if s_idx > t_idx:
        raise InvalidParameterError("need s <= t")
    return oracle(inc, grid, s_idx, t_idx)[0]
