"""First-variation machinery: the Jacobian SDE, its inverse process, the
stochastic Wronskian, Gateaux directions F[h], and general linear SDEs.

All variational equations share the base scheme's drift treatment: the
grad_drift * (state) term is tamed with the same 1 + dt |b(X_i)| denominator,
or solved with the same implicit factor, as the base SDE step.

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
from typing import Optional

import numpy as np

from .core import History, NoisePath, StatePath, TimeGrid
from .errors import (
    DegenerateWronskianError,
    DivergenceError,
    InvalidParameterError,
    MissingGradientsError,
)
from .models import CoefficientField, ModelSpec
from .solver import (
    EULER, TAMED, PathStepper, SchemeChoice, StepRecord, Stepper, check_noise, simulate,
)


# ---------------------------------------------------------------------------
# Per-step variational factors
# ---------------------------------------------------------------------------


class VariationalFactors:
    """Builds the per-step matrices of the linearized flow along the rows of a
    running Stepper, from the StepRecords a pass hands to take().

    For step i (state X_i, increment dW_i) it provides
        dmat: treated drift matrix (B, d, d)
        smat: sum_j grad_sigma^j(X_i) dW_i^j as a (B, d, d) matrix
        amat: dmat + smat (the one-step flow is I + amat)
    plus the raw gradients for forcing terms, under the field and scheme of
    run.  hist is the noise of the rows handed to take(), when they are not
    all the rows of run (the base rows of a noise-shifted Stepper).
    """

    def __init__(self, run: Stepper, hist: Optional[History] = None):
        field = run.field
        if field.grad_drift is None or field.grad_diffusion is None:
            raise MissingGradientsError("model does not supply coefficient gradients")
        self.field = field
        self.scheme = run.scheme
        self.hist = run.hist if hist is None else hist
        self.dt = run.grid.dt
        self._eye = np.eye(field.d)

    def take(self, rec: StepRecord):
        """The factors of the step the record holds, reading its sigma and
        tamed denominator instead of evaluating them again."""
        field, dt = self.field, self.dt
        t = rec.i * dt
        x, dw = rec.x, rec.dw
        self.gs = field.grad_diffusion(t, self.hist, x)  # (B, d, m, d)
        self.sig = rec.sig  # (B, d, m)
        self.dw = dw
        # S = sum_j grad_sigma^{(.,j)} dW^j
        self.smat = np.einsum("bimj,bm->bij", self.gs, dw)
        if self.scheme.kind == EULER:
            self.dmat = field.grad_drift(t, self.hist, x) * dt
        elif self.scheme.kind == TAMED:
            tame = 1.0 / rec.denom  # (B, 1)
            self.dmat = field.grad_drift(t, self.hist, x) * (dt * tame[:, :, None])
        else:  # IMPLICIT: (I - dt grad_b(t_{i+1}, Y))^{-1} - I, Y rebuilt from the step
            y = rec.x_next - np.einsum("bdm,bm->bd", rec.sig, dw)
            jac = self._eye - dt * field.grad_drift(t + dt, self.hist, y)
            if field.d == 1:
                inv = 1.0 / jac  # bit-identical to LAPACK's 1x1 solve
            else:
                inv = np.linalg.solve(
                    jac, np.broadcast_to(self._eye, jac.shape).copy()
                )
            self.dmat = inv - self._eye
        self.amat = self.dmat + self.smat

    def inverse_factor(self) -> np.ndarray:
        """(I + A)^{-1} to third order: I - A + A^2 - A^3."""
        a = self.amat
        a2 = a @ a
        return self._eye - a + a2 - a @ a2

    def wronskian_increment(self) -> np.ndarray:
        """Per-step increment of log D, shape (B,)."""
        tr_d = np.einsum("bii->b", self.dmat)
        tr_s = np.einsum("biji->bj", self.gs)  # (B, m): trace of grad_sigma^j
        lin = np.einsum("bj,bj->b", tr_s, self.dw)
        # realized-QV weighting of the Ito correction keeps det J - D at O(dt)
        trmat = np.einsum("bijl,blki->bjk", self.gs, self.gs)
        qv = np.einsum("bjk,bj,bk->b", trmat, self.dw, self.dw)
        return tr_d + lin - 0.5 * qv


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

    def inverse_defect(self) -> float:
        """max_i || K_i J_i - I ||_F, the discrete shadow of K J = I."""
        eye = np.eye(self.d)
        return float(
            np.max(np.linalg.norm(self.K @ self.J - eye, axis=(1, 2)))
        )

    def wronskian_defect(self) -> float:
        """max_i |det J_i - D_i| / |D_i|."""
        det = np.linalg.det(self.J)
        return float(np.max(np.abs(det - self.D) / np.abs(self.D)))

    def flow_between(self, s_idx: int, t_idx: int) -> np.ndarray:
        """J_s(t) = J(t) K(s), the flow derivative from s to t."""
        return self.J[t_idx] @ self.K[s_idx]


def _jacobian_arrays(run: Stepper):
    """Batched J, K (B, N+1, d, d) and D (B, N+1) along the rows of run,
    stepping it."""
    B, d = run.theta.shape
    N = run.N
    eye = np.eye(d)
    J = np.empty((B, N + 1, d, d))
    K = np.empty((B, N + 1, d, d))
    logD = np.empty((B, N + 1))
    J[:, 0] = K[:, 0] = eye
    logD[:, 0] = 0.0
    vf = VariationalFactors(run)
    for rec in run:
        i = rec.i
        vf.take(rec)
        J[:, i + 1] = J[:, i] + vf.amat @ J[:, i]
        K[:, i + 1] = K[:, i] @ vf.inverse_factor()
        logD[:, i + 1] = logD[:, i] + vf.wronskian_increment()
    return J, K, np.exp(logD)


def jacobian(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice = SchemeChoice(EULER),
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
    cur = h[None]
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in run:
            vf.take(rec)
            cur = cur + np.einsum("bij,bj->bi", vf.amat, cur)
            f[rec.i + 1] = cur[0]
    check_finite_nodes(f, "Gateaux direction F[h]")
    return StatePath(w.grid, spec.d, f)


def check_finite_nodes(values: np.ndarray, what: str, axis: int = 0):
    """Raise DivergenceError at the first grid node (along axis) at which
    values holds a non-finite entry; what names the quantity values holds."""
    nodes = np.moveaxis(values, axis, 0).reshape(values.shape[axis], -1)
    bad = ~np.all(np.isfinite(nodes), axis=1)
    if np.any(bad):
        raise DivergenceError(int(np.argmax(bad)), what=what)


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
    check_noise(w, spec.m)
    d = spec.d
    # rows k and d + k start from x + eps e_k and x - eps e_k
    bumps = np.concatenate([np.eye(d), -np.eye(d)]) * eps
    run = Stepper(spec.field, w.grid, w.increments[None], spec.theta0 + bumps, scheme)
    x = np.empty((run.N + 1, 2 * d, d))
    x[0] = run.theta
    for rec in run:
        if run.diverged.any():
            raise DivergenceError(run.first_bad.min(), w.path_index)
        x[rec.i + 1] = rec.x_next
    return ((x[:, :d] - x[:, d:]) / (2.0 * eps)).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# General linear SDE with explicit d = 1 cross-check
# ---------------------------------------------------------------------------


@dataclass
class LinearSDECoeffs:
    """Coefficients of dX = (B X + b) dt + sum_j (Sigma^j X + sigma^j) dW^j.

    Callbacks take (t, hist) and return, per path batch:
        B -> (B?, d, d); Sigma -> (B?, d, m, d); b -> (B?, d); sigma -> (B?, d, m)
    Leading batch axes optional (deterministic coefficients may return
    unbatched arrays, which broadcast).
    """

    d: int
    m: int
    B: callable
    Sigma: callable
    b: callable
    sigma: callable


@dataclass
class LinearSolveResult:
    numeric: StatePath
    explicit: Optional[StatePath]  # fundamental-matrix solution, d = 1 only


def _linear_field(coeffs: LinearSDECoeffs) -> CoefficientField:
    """The linear SDE as a coefficient field: drift B x + b, diffusion
    Sigma x + sigma, gradients B and Sigma."""
    d, m = coeffs.d, coeffs.m

    def bmat(t, hist):
        return np.asarray(coeffs.B(t, hist), dtype=float).reshape(-1, d, d)

    def smat(t, hist):
        return np.asarray(coeffs.Sigma(t, hist), dtype=float).reshape(-1, d, m, d)

    def drift(t, hist, x):
        bv = np.asarray(coeffs.b(t, hist), dtype=float).reshape(-1, d)
        return (bmat(t, hist) @ x[..., None])[..., 0] + bv

    def diffusion(t, hist, x):
        sv = np.asarray(coeffs.sigma(t, hist), dtype=float).reshape(-1, d, m)
        return np.einsum("...imj,...j->...im", smat(t, hist), x) + sv

    return CoefficientField(
        d, m, drift, diffusion,
        grad_drift=lambda t, hist, x: np.broadcast_to(bmat(t, hist), (len(x), d, d)),
        grad_diffusion=lambda t, hist, x: np.broadcast_to(
            smat(t, hist), (len(x), d, m, d)
        ),
        deterministic=False,
    )


def linear_sde_solve(
    coeffs: LinearSDECoeffs,
    w: NoisePath,
    theta: np.ndarray,
    scheme: SchemeChoice = SchemeChoice(EULER),
) -> LinearSolveResult:
    """Integrate the inhomogeneous linear SDE on the noise w and its grid with
    the scheme's stepping kernel; for d = 1 also evaluate the
    fundamental-matrix (exponential) solution as a cross-check.

    The exponential formula solves the matrix equation only when the
    coefficient matrices commute, so it is evaluated for d = 1 alone.
    """
    theta = np.asarray(theta, dtype=float).reshape(coeffs.d)
    spec = ModelSpec("linear", _linear_field(coeffs), {}, theta)
    numeric = simulate(spec, w, scheme=scheme)
    hist = History.from_path(w)
    grid = w.grid
    dt, N = grid.dt, grid.N

    explicit = None
    if coeffs.d == 1:
        t_axis = np.arange(N)
        Bs = np.array([float(np.asarray(coeffs.B(i * dt, hist)).reshape(-1)[0]) for i in t_axis])
        Ss = np.array([float(np.asarray(coeffs.Sigma(i * dt, hist)).reshape(-1)[0]) for i in t_axis])
        bs = np.array([float(np.asarray(coeffs.b(i * dt, hist)).reshape(-1)[0]) for i in t_axis])
        ss = np.array([float(np.asarray(coeffs.sigma(i * dt, hist)).reshape(-1)[0]) for i in t_axis])
        dwf = w.increments[:, 0]
        log_psi = np.zeros(N + 1)
        np.cumsum((Bs - 0.5 * Ss**2) * dt + Ss * dwf, out=log_psi[1:])
        psi = np.exp(log_psi)
        integ = np.zeros(N + 1)
        np.cumsum(
            (bs - Ss * ss) / psi[:-1] * dt + ss / psi[:-1] * dwf, out=integ[1:]
        )
        explicit = StatePath(grid, 1, (psi * (theta[0] + integ))[:, None])

    return LinearSolveResult(numeric, explicit)
