"""The Malliavin derivative field D_s X(t), the flow representation
D_s X(t) = J_s(t) A(s, t), directional derivatives D^h X, and the Malliavin
covariance matrix.

The field solves, for each lattice time s and t >= s,

    M_s(t) = sigma(s, X(s)) + int_s^t U(s, r) dr + int_s^t V(s, r) dW(r)
           + int_s^t grad_b(r, X(r)) M_s(r) dr
           + int_s^t grad_sigma(r, X(r)) M_s(r) dW(r),

with M_s(t) = 0 for s > t.  U(s, r) and V(s, r) are the model's noise
derivatives of b and sigma at X(r); a deterministic field declares neither,
so both are 0.  All s-rows share the base path and step in lockstep, so the
field costs O(n_s * N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CameronMartinPath, NoisePath, StatePath, TimeGrid, format_lines
from .errors import DivergenceError, InvalidParameterError
from .models import ModelSpec
from .smallmat import contract
from .solver import PathStepper, SchemeChoice, StepRecord, Stepper
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
        dt, d, m = self.grid.dt, self.d, self.m
        templates = [
            f"{t:.17g},{i},{j},%.17g\r\n"
            for t in self.grid.nodes.tolist() for i in range(d) for j in range(m)
        ]
        with open(path, "w", newline="") as fh:
            fh.write("s,t,i,j,value\r\n")
            for pos, sj in enumerate(self.s_indices):
                lead = f"{sj * dt:.17g},"
                fh.write(format_lines(lead, templates[sj * d * m:], self.entries[pos, sj:]))


def _noise_derivatives(field, s_vals: np.ndarray, t: float, hist, x: np.ndarray):
    """The noise-derivative processes U(s, t) (B, k, d, m) and V(s, t) (B, k,
    d, m, m) of field at the k times s_vals, on the B rows x = X(t) (B, d)
    that hist stands for; each is None when the field has no such process."""
    shape = (len(x), len(s_vals), field.d, field.m)
    u = v = None
    if field.mall_drift is not None:
        u = np.asarray(field.mall_drift(s_vals, t, hist, x), dtype=float)
        u = np.broadcast_to(u, shape)
    if field.mall_diffusion is not None:
        v = np.asarray(field.mall_diffusion(s_vals, t, hist, x), dtype=float)
        v = np.broadcast_to(v, shape + (field.m,))
    return u, v


def _field_batch(
    out: Stepper,
    s_idx: np.ndarray,
    t_keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched Malliavin field along the B paths of the one-variant Stepper
    out, stepping it.

    Returns (B, k, N+1, d, m), or (B, k, len(t_keep), d, m) when t_keep (a
    sorted array of node indices) restricts which t-columns are stored: a
    view of the batch-last array (k, n_cols, d, m, B) the steps fill, each
    step's M_s (k, d, m, B) being batch-last as well.  A row s < t_N starts
    from the sigma its step's record holds; only the row s = t_N evaluates
    sigma outside the kernel.
    """
    field, hist = out.field, out.hist
    _, B, d = out.theta.shape
    m = field.m
    k = len(s_idx)
    N, dt = out.N, out.grid.dt
    s_times = s_idx * dt

    col_of = np.full(N + 1, -1, dtype=np.int64)
    if t_keep is None:
        col_of[:] = np.arange(N + 1)
        n_cols = N + 1
    else:
        t_keep = np.asarray(t_keep, dtype=np.int64)
        col_of[t_keep] = np.arange(len(t_keep))
        n_cols = len(t_keep)

    entries = np.zeros((k, n_cols, d, m, B))
    vf = VariationalFactors(out)
    active = 0
    cur = np.zeros((k, d, m, B))

    def activate(i, sig):
        # rows whose s is node i start at M_s(s) = sigma(s, X(s)); column i keeps them
        nonlocal active
        while active < k and s_idx[active] == i:
            cur[active] = sig
            active += 1
        if col_of[i] >= 0:
            entries[:active, col_of[i]] = cur[:active]

    for rec in out:
        i = rec.i
        vf.take(rec)
        activate(i, vf.sig)
        upd = cur[:active] + contract("ij...,sjm...->sim...", vf.amat, cur[:active])
        u, v = _noise_derivatives(field, s_times[:active], i * dt, hist, rec.x[0])
        if u is not None:
            upd = upd + u.transpose(1, 2, 3, 0) * dt
        if v is not None:
            # V^{(i,j,k)} dW^j: contract the middle (Brownian) index
            upd = upd + contract("sijk...,j...->sik...", v.transpose(1, 2, 3, 4, 0), vf.dw)
        cur[:active] = upd
    last = field.diffusion(N * dt, hist, rec.x_next[0]).transpose(1, 2, 0) if active < k else None
    activate(N, last)
    return entries.transpose(4, 0, 1, 2, 3)


def malliavin_field(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice,
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
    cur = np.zeros((k, d, m))
    active = 0
    for i in range(N + 1):
        while active < k and s_idx[active] == i:
            cur[active] = field.diffusion(i * dt, hist, values[:, i])[0]
            active += 1
        # J_s(t) A(s, t) uses A propagated to each t; rows keep their running value
        A[:active, i] = cur[:active]
        if i == N or field.deterministic:
            continue
        t = i * dt
        u, vmat = _noise_derivatives(field, s_idx[:active] * dt, t, hist, values[:, i])
        u = np.zeros((active, d, m)) if u is None else u[0]
        vmat = np.zeros((active, d, m, m)) if vmat is None else vmat[0]
        # the s-rows are the batch: <grad_sigma(r), V(s, r)>^{(i,k)} =
        # sum_{j,l} gs[i,j,l] V[l,j,k]
        gsr = field.grad_diffusion(t, hist, values[:, i])[0]  # (d, m, d)
        contr = contract("ijl,...ljk->...ik", gsr, vmat)
        v_dw = contract("...ijk,j->...ik", vmat, hist.increments[0, i])
        jinv = contract("...ab,bc->...ac", bundle.J[s_idx[:active]], bundle.K[i])
        cur[:active] = cur[:active] + contract("...ij,...jk->...ik", jinv, (u - contr) * dt + v_dw)
    return RepresentationParts(bundle, s_idx, A)


# ---------------------------------------------------------------------------
# Directional derivative D^h X
# ---------------------------------------------------------------------------


def _shift_integrals(field, hist, x: np.ndarray, hd: np.ndarray, i: int, dt: float):
    """int_0^{t_i} U(s, t_i) hdot(s) ds (d, B) and int_0^{t_i} V(s, t_i)
    hdot(s) ds (d, m, B) on the rows x = X(t_i) (B, d), left-point in s over
    the nodes s < t_i, for the density hd (N, m) of h; each None when the
    field has no such process or i = 0.  An s-lattice sum, for np.einsum."""
    if i == 0:
        return None, None
    u, v = _noise_derivatives(field, np.arange(i) * dt, i * dt, hist, x)
    if u is not None:
        u = np.einsum("bsdm,sm->bd", u, hd[:i]).T * dt
    if v is not None:
        v = np.einsum("bsdjk,sk->bdj", v, hd[:i]).transpose(1, 2, 0) * dt
    return u, v


def directional_step(vf: VariationalFactors, rec: StepRecord,
                     h: CameronMartinPath, y: np.ndarray) -> np.ndarray:
    """D^h X at node i+1 from y = D^h X at node i, batch-last (d, B), along
    the B paths of variant 0 of rec, the kernel's record of step i: the
    linearized step I + A_i, forced by sigma hdot_i dt and the U and V
    terms.  vf takes that variant of rec and holds its noise."""
    i, dt = rec.i, vf.dt
    hd = h.density  # (N, m)
    vf.take(rec)
    force_dt = contract("dm...,m...->d...", vf.sig, hd[i][:, None]) * dt
    iu, iv = _shift_integrals(vf.field, vf.hist, rec.x[0], hd, i, dt)
    if iu is not None:
        force_dt = force_dt + iu * dt
    step = y + contract("ij...,j...->i...", vf.amat, y) + force_dt
    if iv is not None:
        # (int_0^{t_i} V(s, t_i) hdot(s) ds)^{(d, j)} contracted with dW^j
        step = step + contract("dj...,j...->d...", iv, vf.dw)
    return step


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
    y = np.zeros((spec.d, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for rec in run:
            y = directional_step(vf, rec, h, y)
            vals[rec.i + 1] = y[:, 0]
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
