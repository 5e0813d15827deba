"""The Malliavin derivative field D_s X(t), the flow representation
D_s X(t) = J_s(t) A(s, t), directional derivatives D^h X, and the Malliavin
covariance matrix.

The field solves, for each lattice time s and t >= s,

    M_s(t) = sigma(s, X(s)) + int_s^t U(s, r) dr + int_s^t V(s, r) dW(r)
           + int_s^t grad_b(r, X(r)) M_s(r) dr
           + int_s^t grad_sigma(r, X(r)) M_s(r) dW(r),

with M_s(t) = 0 for s > t.  U and V are the model's noise-derivative
processes; deterministic coefficient fields have U = V = 0.  All s-rows share
the base path and step in lockstep, so the field costs O(n_s * N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CameronMartinPath, NoisePath, StatePath, TimeGrid, format_block
from .errors import DivergenceError, InvalidParameterError
from .models import ModelSpec
from .solver import EULER, PathStepper, SchemeChoice, StepRecord, Stepper
from .variational import JacobianBundle, VariationalFactors, check_finite_nodes


def _resolve_s_indices(grid: TimeGrid, s_stride: int) -> np.ndarray:
    if s_stride < 1:
        raise InvalidParameterError("s_stride must be >= 1")
    return np.arange(0, grid.N + 1, s_stride, dtype=np.int64)


def _lattice_row(s_indices: np.ndarray, N: int, s_idx: int, t_idx: int) -> int:
    """The row of s_idx in s_indices, for s_idx on the s-lattice and t_idx in 0..N."""
    pos = int(np.searchsorted(s_indices, s_idx))
    if not (0 <= t_idx <= N) or pos == len(s_indices) or s_indices[pos] != s_idx:
        raise InvalidParameterError(
            f"(s, t) index ({s_idx}, {t_idx}) needs s on the s-lattice and t in 0..{N}"
        )
    return pos


@dataclass
class MalliavinField:
    """Lower-triangular array M[j][i] ~ D_{s_j} X(t_i) for s_j <= t_i."""

    grid: TimeGrid
    s_indices: np.ndarray  # (k,)
    entries: np.ndarray  # (k, N+1, d, m); zero where t < s
    base: StatePath

    @property
    def d(self) -> int:
        return self.entries.shape[2]

    @property
    def m(self) -> int:
        return self.entries.shape[3]

    def value(self, s_idx: int, t_idx: int) -> np.ndarray:
        """D_s X(t) at lattice nodes; the zero matrix when s > t."""
        pos = _lattice_row(self.s_indices, self.grid.N, s_idx, t_idx)
        if s_idx > t_idx:
            return np.zeros((self.d, self.m))
        return self.entries[pos, t_idx]

    def export_csv(self, path):
        """Rows (s, t, i, j, value) over the computed lattice, one s-row at a
        time.  Lines end in CRLF (the other CSV artifacts end theirs in LF)."""
        dt, N, d, m = self.grid.dt, self.grid.N, self.d, self.m
        with open(path, "w", newline="") as fh:
            fh.write("s,t,i,j,value\r\n")
            for pos, sj in enumerate(self.s_indices):
                block = np.empty((N + 1 - sj, d, m, 4))
                block[..., 0] = (np.arange(sj, N + 1) * dt)[:, None, None]
                block[..., 1] = np.arange(d)[:, None]
                block[..., 2] = np.arange(m)
                block[..., 3] = self.entries[pos, sj:]
                row_fmt = f"{sj * dt:.17g},%.17g,%d,%d,%.17g\r\n"
                fh.write(format_block(block.reshape(-1, 4), row_fmt))


def _field_batch(
    out: Stepper,
    s_idx: np.ndarray,
    t_keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched Malliavin field along the rows of the Stepper out, stepping it.

    Returns (B, k, N+1, d, m), or (B, k, len(t_keep), d, m) when t_keep (a
    sorted array of node indices) restricts which t-columns are stored.  A
    row s < t_N starts from the sigma its step's record holds; only the row
    s = t_N evaluates sigma outside the kernel.
    """
    field, hist = out.field, out.hist
    B, d, m = len(out.theta), field.d, field.m
    k = len(s_idx)
    N, dt = out.N, out.grid.dt
    use_uv = field.mall_drift is not None or field.mall_diffusion is not None
    s_times = s_idx * dt

    col_of = np.full(N + 1, -1, dtype=np.int64)
    if t_keep is None:
        col_of[:] = np.arange(N + 1)
        n_cols = N + 1
    else:
        t_keep = np.asarray(t_keep, dtype=np.int64)
        col_of[t_keep] = np.arange(len(t_keep))
        n_cols = len(t_keep)

    entries = np.zeros((B, k, n_cols, d, m))
    vf = VariationalFactors(out)
    active = 0
    cur = np.zeros((B, k, d, m))

    def activate(i, sig):
        # rows whose s is node i start at M_s(s) = sigma(s, X(s)); column i keeps them
        nonlocal active
        while active < k and s_idx[active] == i:
            cur[:, active] = sig
            active += 1
        if col_of[i] >= 0:
            entries[:, :active, col_of[i]] = cur[:, :active]

    for rec in out:
        i = rec.i
        t = i * dt
        activate(i, rec.sig)
        vf.take(rec)
        upd = cur[:, :active] + vf.amat[:, None] @ cur[:, :active]
        if use_uv:
            sv = s_times[:active]
            if field.mall_drift is not None:
                u = np.asarray(field.mall_drift(sv, t, hist), dtype=float)
                upd = upd + np.broadcast_to(u, (B, active, d, m)) * dt
            if field.mall_diffusion is not None:
                # V^{(i,j,k)} dW^j: contract the middle (Brownian) index
                v = np.broadcast_to(
                    np.asarray(field.mall_diffusion(sv, t, hist), dtype=float),
                    (B, active, d, m, m),
                )
                upd = upd + np.einsum("bsijk,bj->bsik", v, vf.dw)
        cur[:, :active] = upd
    activate(N, field.diffusion(N * dt, hist, rec.x_next) if active < k else None)
    return entries


def malliavin_field(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice = SchemeChoice(EULER),
    s_stride: int = 1,
) -> MalliavinField:
    """Compute D_s X(t) on the (s_lattice x grid) lattice for one noise path,
    on its grid."""
    s_idx = _resolve_s_indices(w.grid, s_stride)
    run = PathStepper(spec, w, scheme)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = _field_batch(out=run, s_idx=s_idx)[0]
    check_finite_nodes(entries, "Malliavin field D_s X", axis=1)
    return MalliavinField(w.grid, s_idx, entries, run.path)


# ---------------------------------------------------------------------------
# Representation parts: D_s X(t) = J_s(t) A(s, t)
# ---------------------------------------------------------------------------


@dataclass
class RepresentationParts:
    """J_s(t) = J(t) K(s) and the forcing part A(s, t) of the representation."""

    bundle: JacobianBundle
    s_indices: np.ndarray
    A: np.ndarray  # (k, N+1, d, m); A(s, t) defined for t >= s

    def predicted(self, s_idx: int, t_idx: int) -> np.ndarray:
        """J_s(t) A(s, t), the representation's value for D_s X(t); zero when s > t."""
        pos = _lattice_row(self.s_indices, self.bundle.grid.N, s_idx, t_idx)
        if s_idx > t_idx:
            return np.zeros_like(self.A[pos, t_idx])
        return self.bundle.flow_between(s_idx, t_idx) @ self.A[pos, t_idx]


def representation_parts(
    bundle: JacobianBundle,
    s_stride: int = 1,
) -> RepresentationParts:
    """A(s, t) = sigma(s, X(s)) + int_s^t J_s(r)^{-1} (U - <grad_sigma, V>) dr
    + int_s^t J_s(r)^{-1} V dW(r), with J_s(r)^{-1} = J(s) K(r), for the
    model and on the noise path the bundle was solved with.

    For deterministic coefficients both integrals vanish and
    A(s, t) = sigma(s, X(s)) exactly.
    """
    grid, hist = bundle.grid, bundle.hist
    field = bundle.spec.field
    s_idx = _resolve_s_indices(grid, s_stride)
    d, m = field.d, field.m
    k = len(s_idx)
    N = grid.N
    dt = grid.dt
    values = bundle.base.values[None]

    A = np.zeros((k, N + 1, d, m))
    use_uv = field.mall_drift is not None or field.mall_diffusion is not None
    s_times = s_idx * dt

    sig_at = {}
    for pos, sj in enumerate(s_idx):
        sig_at[pos] = field.diffusion(sj * dt, hist, values[:, sj])[0]
        A[pos, sj] = sig_at[pos]

    if not use_uv:
        for pos, sj in enumerate(s_idx):
            A[pos, sj:] = sig_at[pos]
        return RepresentationParts(bundle, s_idx, A)

    cur = np.zeros((k, d, m))
    active = 0
    for i in range(N + 1):
        while active < k and s_idx[active] == i:
            cur[active] = sig_at[active]
            active += 1
        if i == N:
            break
        t = i * dt
        sv = s_times[:active]
        u = np.zeros((active, d, m))
        if field.mall_drift is not None:
            u = np.broadcast_to(
                np.asarray(field.mall_drift(sv, t, hist), dtype=float),
                (1, active, d, m),
            )[0]
        vmat = np.zeros((active, d, m, m))
        if field.mall_diffusion is not None:
            vmat = np.broadcast_to(
                np.asarray(field.mall_diffusion(sv, t, hist), dtype=float),
                (1, active, d, m, m),
            )[0]
        # <grad_sigma(r), V(s, r)>^{(i,k)} = sum_{j,l} gs[i,j,l] V[l,j,k]
        gsr = field.grad_diffusion(t, hist, values[:, i])[0]  # (d, m, d)
        contr = np.einsum("ijl,sljk->sik", gsr, vmat)
        v_dw = np.einsum("sijk,j->sik", vmat, hist.increments[0, i])
        jinv = np.einsum(
            "sab,sbc->sac",
            np.broadcast_to(bundle.J[s_idx[:active]], (active, d, d)),
            np.broadcast_to(bundle.K[i], (active, d, d)),
        )
        cur[:active] = cur[:active] + jinv @ ((u - contr) * dt + v_dw)
        A[:active, i + 1] = cur[:active]
    # J_s(t) A(s, t) uses A propagated to each t; rows keep their running value
    return RepresentationParts(bundle, s_idx, A)


# ---------------------------------------------------------------------------
# Directional derivative D^h X
# ---------------------------------------------------------------------------


def directional_step(vf: VariationalFactors, rec: StepRecord,
                     h: CameronMartinPath, y: np.ndarray) -> np.ndarray:
    """D^h X at node i+1 from y = D^h X at node i (B, d), along the rows of
    rec, the kernel's record of step i: the linearized step I + A_i, forced by
    sigma hdot_i dt and the U and V terms.  vf reads rec through take(), so
    its hist must be the noise of rec's rows."""
    field, hist, dt = vf.field, vf.hist, vf.dt
    i = rec.i
    B, d, m = len(y), field.d, field.m
    t = i * dt
    hd = h.density  # (N, m)
    vf.take(rec)
    force_dt = np.einsum("bdm,m->bd", vf.sig, hd[i]) * dt
    force_dw = np.zeros((B, d))
    if i > 0 and (field.mall_drift is not None or field.mall_diffusion is not None):
        left = np.arange(i) * dt  # the left nodes s < t_i
        if field.mall_drift is not None:
            # int_0^{t_i} U(s, t_i) hdot(s) ds, left-point in s
            u = np.asarray(field.mall_drift(left, t, hist), dtype=float)
            u = np.broadcast_to(u, (B, i, d, m))
            force_dt = force_dt + np.einsum("bsdm,sm->bd", u, hd[:i]) * dt * dt
        if field.mall_diffusion is not None:
            v = np.asarray(field.mall_diffusion(left, t, hist), dtype=float)
            v = np.broadcast_to(v, (B, i, d, m, m))
            # (int_0^{t_i} V(s, t_i) hdot(s) ds)^{(d, j)} then contract with dW^j
            iv = np.einsum("bsdjk,sk->bdj", v, hd[:i]) * dt
            force_dw = np.einsum("bdj,bj->bd", iv, vf.dw)
    return y + np.einsum("bij,bj->bi", vf.amat, y) + force_dt + force_dw


def directional_derivative(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice,
    h: CameronMartinPath,
) -> StatePath:
    """D^h X = int_0^. M_s(.) hdot(s) ds on the noise w, computed as one
    linear SDE stepped along the base path's records."""
    grid = w.grid
    h.check_on(grid, spec.m)
    run = PathStepper(spec, w, scheme)
    vf = VariationalFactors(run)
    vals = np.zeros((grid.N + 1, spec.d))
    y = np.zeros((1, spec.d))
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in run:
            y = directional_step(vf, rec, h, y)
            vals[rec.i + 1] = y[0]
    check_finite_nodes(vals, "directional derivative D^h X")
    return StatePath(grid, spec.d, vals)


# ---------------------------------------------------------------------------
# Malliavin covariance matrix
# ---------------------------------------------------------------------------


@dataclass
class MalliavinMatrix:
    t: float
    Q: np.ndarray  # (d, d) symmetric PSD up to tolerance
    min_eigenvalue: float

    @property
    def asymmetry(self) -> float:
        return float(np.max(np.abs(self.Q - self.Q.T)))


def malliavin_matrix(field: MalliavinField, t_index: int) -> MalliavinMatrix:
    """Q(t) = int_0^t D_s X(t) D_s X(t)^T ds by trapezoidal quadrature over the
    s-lattice; near-degeneracy is reported via the minimum eigenvalue."""
    s_idx = field.s_indices[field.s_indices <= t_index]
    if len(s_idx) < 2 or s_idx[-1] != t_index:
        raise InvalidParameterError(
            "t_index must be covered by the s-lattice (including s = t)"
        )
    dt = field.grid.dt
    s_times = s_idx * dt
    mats = field.entries[: len(s_idx), t_index]  # (k, d, m)
    outer = np.einsum("kim,kjm->kij", mats, mats)
    weights = np.zeros(len(s_idx))
    gaps = np.diff(s_times)
    weights[:-1] += 0.5 * gaps
    weights[1:] += 0.5 * gaps
    q = np.einsum("k,kij->ij", weights, outer)
    if not np.all(np.isfinite(q)):
        # a finite field whose squares overflow
        raise DivergenceError(t_index, what="Malliavin matrix Q")
    mineig = float(np.linalg.eigvalsh(q).min())
    return MalliavinMatrix(t_index * dt, q, mineig)
