"""First-variation machinery: the Jacobian SDE, its inverse process, the
stochastic Wronskian, Gateaux directions F[h], and the central-difference
flow derivative.

All variational equations share the base scheme's drift treatment: the
grad_drift * (state) term is tamed with the same 1 + dt |b(X_i)| denominator,
or solved with the same implicit factor, as the base SDE step.  The tamed
factor leaves out that denominator's derivative, so tamed J, unlike Euler and
implicit J, is not the derivative of the map the kernel steps (6.7e-4 off the
central difference at N = 256, GL from x0 = 1), though it converges to the
SDE's J as dt -> 0.  Implicit J takes grad_b at Y rebuilt as X_{i+1} -
sigma dW, not at the kernel's Newton root, and the two differ in their last
bit on 1-5% of steps (N = 1024, paths 0-3 of seed 1: GL 2.0%, GBM 0.9%,
Verhulst 2.3%, quintic 4.9%, OU 4.9%), so where grad_b is not constant it
is the derivative at a point one rounding away from the one stepped.

Discretization of the inverse process K and the Wronskian D
-----------------------------------------------------------
Writing one J-step as J_{i+1} = (I + A_i) J_i with A_i = Dmat_i + S_i
(Dmat the treated drift matrix, S_i = sum_j grad_sigma^j dW^j), the inverse
SDE is discretized multiplicatively,

    K_{i+1} = K_i (I - A_i + A_i^2 - A_i^3),

whose mean increment reproduces the -(grad b - <grad sigma, grad sigma>) dt
drift and -K grad sigma dW diffusion of the continuous inverse equation.  A
plain Euler step (keeping only the mean of A^2) leaves an O(sqrt(dt))
quadratic-variation fluctuation in K J - I; the expansion above keeps the
identity at O(dt) pathwise.  For the same reason the Wronskian's Ito
correction integral is weighted by the realized quadratic variation
dW^j dW^k instead of dt, so log det J - log D stays O(dt) pathwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import History, NoisePath, StatePath, TimeGrid
from .errors import (
    DegenerateWronskianError,
    DivergenceError,
    InvalidParameterError,
    MissingGradientsError,
    NewtonFailureError,
)
from .models import ModelSpec
from .smallmat import contract
from .solver import (
    EULER, TAMED, PathStepper, SchemeChoice, StepRecord, Stepper, simulate_batch, solve_paths,
)


# ---------------------------------------------------------------------------
# Per-step variational factors
# ---------------------------------------------------------------------------


class VariationalFactors:
    """Builds the per-step matrices of the linearized flow along variant 0 of
    a running Stepper, from the StepRecords a pass hands to take().

    For step i (state X_i, increment dW_i) it provides, batch-last (the B
    paths on the last axis, so that each product is a few multiply-adds
    over a contiguous batch, see smallmat.contract)
        dmat: treated drift matrix (d, d, B)
        smat: sum_j grad_sigma^j(X_i) dW_i^j as a (d, d, B) matrix
        amat: dmat + smat (the one-step flow is I + amat)
    plus the raw gradients for forcing terms, gs = grad_sigma(X_i) (d, m,
    d, B), sig = sigma(X_i) (d, m, B) and dw (m, B), under the field and
    scheme of run, for the B paths of variant 0, the base.  The callbacks
    read run's history, or with K > 1 variants its take of variant 0's rows
    0..B-1 (a noise-shifted batch runs its base on the zero shift).  They
    still get and return rows; take transposes each result once.
    """

    def __init__(self, run: Stepper):
        field = run.field
        if field.grad_drift is None or field.grad_diffusion is None:
            raise MissingGradientsError("model does not supply coefficient gradients")
        self.field = field
        self.scheme = run.scheme
        K, B, d = run.theta.shape
        self.hist = run.hist if K == 1 else run.hist.take(slice(0, B))
        self.dt = run.grid.dt
        self.eye = np.eye(d)[..., None]  # (d, d, 1)
        # the implicit factor's right-hand side, one identity per path row
        self._eyes = np.broadcast_to(np.eye(d), (B, d, d)).copy()

    def take(self, rec: StepRecord):
        """The factors of the step the record holds, on its variant 0,
        reading its sigma and tamed denominator instead of evaluating them
        again."""
        field, dt = self.field, self.dt
        t = rec.i * dt
        x, sig, dw = rec.x[0], rec.sig[0], rec.dw[0]
        self.gs = field.grad_diffusion(t, self.hist, x).transpose(1, 2, 3, 0)
        self.sig = sig.transpose(1, 2, 0)
        self.dw = dw.T
        # S = sum_j grad_sigma^{(.,j)} dW^j
        self.smat = contract("imj...,m...->ij...", self.gs, self.dw)
        if self.scheme.kind == EULER:
            self.dmat = field.grad_drift(t, self.hist, x).transpose(1, 2, 0) * dt
        elif self.scheme.kind == TAMED:
            tame = 1.0 / rec.denom[0]  # (B,)
            self.dmat = field.grad_drift(t, self.hist, x).transpose(1, 2, 0) * (dt * tame)
        else:  # IMPLICIT: (I - dt grad_b(t_{i+1}, Y))^{-1} - I, Y rebuilt from the step
            # NaN where the matrix is singular, as in the kernel's Newton step
            y = rec.x_next[0] - contract("...dm,...m->...d", sig, dw)
            jac = self._eyes[0] - dt * field.grad_drift(t + dt, self.hist, y)
            self.dmat = solve_paths(jac, self._eyes).transpose(1, 2, 0) - self.eye
        self.amat = self.dmat + self.smat

    def inverse_factor(self) -> np.ndarray:
        """(I + A)^{-1} to third order: I - A + A^2 - A^3, (d, d, B)."""
        a = self.amat
        a2 = contract("ij...,jk...->ik...", a, a)
        return self.eye - a + a2 - contract("ij...,jk...->ik...", a, a2)

    def wronskian_increment(self) -> np.ndarray:
        """Per-step increment of log D, shape (B,): tr A = tr Dmat + sum_j
        tr(grad_sigma^j) dW^j, less half the Ito correction."""
        # realized-QV weighting of the Ito correction keeps det J - D at O(dt)
        trmat = contract("ijl...,lki...->jk...", self.gs, self.gs)
        qv = contract("jk...,j...,k...->...", trmat, self.dw, self.dw)
        return contract("ii...->...", self.amat) - 0.5 * qv


# ---------------------------------------------------------------------------
# Jacobian bundle
# ---------------------------------------------------------------------------


@dataclass
class JacobianBundle:
    """The flow derivative J, its inverse process K, and the Wronskian D of
    spec, computed with the base path on one noise path (hist, as the
    coefficient callbacks read it)."""

    spec: ModelSpec
    hist: History
    J: np.ndarray  # (N+1, d, d)
    K: np.ndarray  # (N+1, d, d)
    D: np.ndarray  # (N+1,)
    base: StatePath

    @property
    def grid(self) -> TimeGrid:
        return self.hist.grid

    @property
    def d(self) -> int:
        return self.J.shape[1]

    def inverse_defects(self) -> np.ndarray:
        """|| K_i J_i - I ||_F per node i, (N+1,): the discrete shadow of K J = I."""
        return np.linalg.norm(self.K @ self.J - np.eye(self.d), axis=(1, 2))

    def inverse_defect(self) -> float:
        """max_i || K_i J_i - I ||_F."""
        return float(np.max(self.inverse_defects()))

    def wronskian_defect(self) -> float:
        """max_i |det J_i - D_i| / |D_i|."""
        det = np.linalg.det(self.J)
        return float(np.max(np.abs(det - self.D) / np.abs(self.D)))

    def flow_between(self, s_idx: int, t_idx: int) -> np.ndarray:
        """J_s(t) = J(t) K(s), the flow derivative from s to t."""
        return self.J[t_idx] @ self.K[s_idx]


def _jacobian_arrays(run: Stepper):
    """Batched J, K (B, N+1, d, d) and D (B, N+1) along the B paths of run's
    one variant, stepping it: views of the batch-last arrays the steps
    fill, (N+1, d, d, B) and (N+1, B)."""
    _, B, d = run.theta.shape
    N = run.N
    vf = VariationalFactors(run)
    J = np.empty((N + 1, d, d, B))
    K = np.empty((N + 1, d, d, B))
    logD = np.empty((N + 1, B))
    J[0] = K[0] = vf.eye
    logD[0] = 0.0
    for rec in run:
        i = rec.i
        vf.take(rec)
        J[i + 1] = J[i] + contract("ij...,jk...->ik...", vf.amat, J[i])
        K[i + 1] = contract("ij...,jk...->ik...", K[i], vf.inverse_factor())
        logD[i + 1] = logD[i] + vf.wronskian_increment()
    return J.transpose(3, 0, 1, 2), K.transpose(3, 0, 1, 2), np.exp(logD).T


def jacobian(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice,
) -> JacobianBundle:
    """Solve the base SDE and its first-variation system on one noise path
    and its grid."""
    run = PathStepper(spec, w, scheme)
    # J and K may overflow on a finite path: raise at their first
    # non-finite node, before the Wronskian is blamed
    with np.errstate(over="ignore", invalid="ignore"):
        J, K, D = _jacobian_arrays(run)
    check_finite_nodes(np.stack([J[0], K[0]], axis=1), "first variation (J, K)")
    if not np.all(np.isfinite(D[0])) or np.any(D[0] <= 0.0):
        raise DegenerateWronskianError("Wronskian non-positive along the path")
    return JacobianBundle(spec, run.hist, J[0], K[0], D[0], run.path)


def gateaux_direction(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice,
    h: np.ndarray,
) -> StatePath:
    """The parametric Gateaux direction F(t)[h]: the linear SDE with initial
    value h driven along the base path on w; equals J(t) h up to rounding."""
    h = np.asarray(h, dtype=float).reshape(spec.d)
    run = PathStepper(spec, w, scheme)
    vf = VariationalFactors(run)
    f = np.empty((run.N + 1, spec.d))
    f[0] = h
    cur = h[:, None]  # batch-last (d, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in run:
            vf.take(rec)
            cur = cur + contract("ij...,j...->i...", vf.amat, cur)
            f[rec.i + 1] = cur[:, 0]
    check_finite_nodes(f, "Gateaux direction F[h]")
    return StatePath(w.grid, spec.d, f)


def check_finite_nodes(values: np.ndarray, what: str, axis: int = 0):
    """Raise DivergenceError at the first grid node (along axis) at which
    values holds a non-finite entry; what names the quantity values holds."""
    nodes = np.moveaxis(values, axis, 0).reshape(values.shape[axis], -1)
    bad = ~np.all(np.isfinite(nodes), axis=1)
    if np.any(bad):
        raise DivergenceError(int(np.argmax(bad)), what=what)


def central_bumps(d: int, eps: float) -> np.ndarray:
    """The offsets (2d, d) of the central difference's starts from x: row k
    is eps e_k and row d + k is -eps e_k."""
    return np.concatenate([np.eye(d), -np.eye(d)]) * eps


def finite_difference_jacobian(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice,
    eps: float,
) -> np.ndarray:
    """Central-difference flow derivative (X_{x+eps e_k} - X_{x-eps e_k}) / 2 eps
    at x = spec.theta0, per basis direction on the common noise w; shape
    (N+1, d, d).  The 2d starts x +- eps e_k run as one stacked Stepper."""
    if not (eps > 0):
        raise InvalidParameterError("eps must be > 0")
    d = spec.d
    starts = spec.theta0 + central_bumps(d, eps)[:, None]
    try:
        run = simulate_batch(spec.field, w.grid, w.increments[None], starts, scheme)
    except NewtonFailureError as err:
        raise err.at_path(w.path_index) from None
    if run.diverged.any():
        raise DivergenceError(run.first_bad.min(), w.path_index)
    x = run.values[:, 0]
    return ((x[:d] - x[d:]) / (2.0 * eps)).transpose(1, 2, 0)
