"""Time stepping for the base SDE under super-linear drifts, plus the
stability estimator.

Schemes
-------
euler_maruyama      X' = X + b dt + sigma dW
tamed_euler         X' = X + b dt / (1 + dt |b|) + sigma dW
split_step_implicit solve Y = X + b(t', Y) dt by damped Newton, X' = Y + sigma(X) dW

The implicit equation has a unique root whenever dt * L_mono < 1 by the
one-sided Lipschitz property.  Newton stops each path at its own first iterate
within tol, and iterates only the rows still active and not diverged, so in
every scheme a path's values do not depend on its batch.
Any state with |X| > DIVERGENCE_BOUND or a non-finite entry is tagged diverged
at the first bad step; divergence is never silent.  A start beyond the bound
is rejected.

The kernel is a Stepper: iterating it yields one StepRecord per step, holding
what the step evaluated (X_i, sigma, the tamed denominator, dW_i)
and X_{i+1}.  A Stepper may run K variants of its P paths as one batch, on
an axis of their own: theta broadcasts to (K, P, d) and every state, record
field and divergence flag has the leading axes (K, P).  With shifts (K, N,
m) variant k runs on inc[p] + shifts[k], formed step by step, so no shifted
copy of the noise is built; without, the variants broadcast one step's
increments.  Variant 0 is the base, which a noise-shifted batch runs on the
zero shift, and the one the variational pass differentiates.  Only the
kernel flattens the variants, to the rows the coefficient callbacks see.

Each caller keeps only what it reads.  simulate_batch stores every state,
which a path functional such as a Cameron-Martin functional needs.  Every
variational pass reads the records through VariationalFactors.take: J, K, D,
the Malliavin field, F[h] and D^h X along one PathStepper, the greeks pass and
the Gateaux ladder along variant 0 of stacked batches.  stability_ratio and
the ladder fold a running sup over the records instead of storing paths to
take it.

run_paths is the chunked Monte Carlo driver every estimator runs its paths
through.  It processes paths in chunks sized by core.chunk_size: as many
paths as fit their (N, m) increments and row state in ``CHUNK_BYTES``, at
least ``MIN_CHUNK``, and few enough that every worker gets a chunk.  With
``workers > 1`` the chunks run in n = min(workers, chunks) plain child
processes forked from the caller, worker w running chunks w, w+n, ... and
writing each chunk's result, pickled, to its pipe as the chunk ends.  The
caller runs no chunk and draws no noise; it reads the results in chunk
order, so a failure is raised as soon as the chunks before it are read.
Each worker holds one chunk's working set at a time, so peak memory is
about ``workers`` times that.  A worker killed by a signal (the OOM killer,
kill -9) ends the run with WorkerLostError naming the chunk it lost, a
failed fork with WorkerStartError, and no worker outlives the call.  Chunks
fork only on Linux from a process running no other Python thread; elsewhere
they run serially.  The chunk boundaries move with the worker count and the
path count, but no result or error does: every path has its own noise
stream and its own arithmetic, and a failing run reports its first failing
path.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    History,
    MCEstimate,
    NoisePath,
    StatePath,
    TimeGrid,
    chunk_size,
    mc_estimate,
    sample_increments,
)
from .errors import (
    DivergenceError, InvalidParameterError, MonosdeError, NewtonFailureError, WorkerLostError,
    WorkerStartError,
)
from .models import CoefficientField, ModelSpec

DIVERGENCE_BOUND = 1e150

EULER = "euler_maruyama"
TAMED = "tamed_euler"
IMPLICIT = "split_step_implicit"
SCHEMES = (EULER, TAMED, IMPLICIT)


@dataclass(frozen=True)
class SchemeChoice:
    kind: str
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise InvalidParameterError(
                f"unknown scheme {self.kind!r}; choose from {SCHEMES}"
            )
        if not (self.newton_tol > 0):
            raise InvalidParameterError("newton_tol must be > 0")
        if self.newton_max_iter < 1:
            raise InvalidParameterError("newton_max_iter must be >= 1")


def _check_implicit_dt(field: CoefficientField, grid: TimeGrid):
    if field.monotone_const > 0 and grid.dt * field.monotone_const >= 1.0:
        raise InvalidParameterError(
            "split_step_implicit requires dt * L_mono < 1 "
            f"(dt={grid.dt:.3g}, L_mono={field.monotone_const:.3g})"
        )


def solve_paths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b for the small systems of B paths, a (B, d, d) and b
    (B, d, k), where a path whose a is exactly singular gets NaN (or inf).

    d = 1 divides, bit-identical to LAPACK's 1x1 solve without its per-call
    cost.  For d > 1 a singular stack is bisected down to its singular paths;
    each system is solved alone, so the others keep their bits."""
    if a.shape[-1] == 1:
        return b / a
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        half = len(a) // 2
        return np.concatenate([solve_paths(a[:half], b[:half]), solve_paths(a[half:], b[half:])])


#: Newton goes on with its active rows alone once fewer than this share of
#: the rows it iterates is still active
NEWTON_GATHER = 1 / 8


def _newton_solve(field, t_next, hist, x, dt, scheme, step_index, eye):
    """Solve Y = x + dt b(t_next, Y) with damped Newton, batched over the
    rows x (B, d) of hist.rows; eye is the (d, d) identity.

    Each row stops at its own first iterate within tol, so its root does not
    depend on the other rows of the batch.  A row whose Newton matrix is
    singular takes a NaN step, so the kernel's divergence check tags it.
    Once, after an iteration, fewer than NEWTON_GATHER of the rows iterated
    are still active, the active rows are gathered, with their x and
    hist.take of them, and iterated alone; their roots are scattered back at
    the end.  Each row's arithmetic is the same either way, so no byte moves,
    and a callback must read the noise of the rows hist.rows it is given.

    An iteration allocates only what its iterate needs: the Newton matrix and
    step, and per line-search trial the trial point, its residual, its norm
    and the (B,) masks.  The first trial is the full step y + s; the damping
    factors lambda (B, 1) are allocated only once some row's residual grew.
    While every row is active the accepted trial becomes the iterate as it
    is, without a masked copy.  Each element sees the same float operations
    in the same order as in the plain scheme y + lambda s, (y - x) - dt b."""
    tol = scheme.newton_tol

    def residual(y):
        r = y - x
        r -= dt * field.drift(t_next, hist, y)
        return r

    y = x.copy()
    res = residual(y)
    norm = np.abs(res).max(axis=1)
    roots = rows = None  # once gathered: the roots of all rows, and the rows y holds
    for it in range(scheme.newton_max_iter + 1):
        # A row iterates while its iterate is finite and its residual is not
        # within tol (NaN is not); the kernel tags a non-finite iterate.
        active = norm <= tol
        np.logical_not(active, out=active)
        active &= np.isfinite(y).all(axis=1)
        n_active = np.count_nonzero(active)
        if n_active == 0:
            break
        if it == scheme.newton_max_iter:
            raise NewtonFailureError(step_index, np.max(norm[active]), tol)
        if n_active < NEWTON_GATHER * len(y):
            # the inactive rows hold their roots: go on with the active ones
            sel = np.flatnonzero(active)
            if rows is None:
                roots, rows = y, sel
            else:
                roots[rows] = y
                rows = rows[sel]
            x, y, res, norm, hist = x[sel], y[sel], res[sel], norm[sel], hist.take(sel)
            active = active[sel]
        jac = dt * field.grad_drift(t_next, hist, y)
        np.subtract(eye, jac, out=jac)
        step = solve_paths(jac, -res[..., None])[..., 0]
        y_try, lam = y + step, None
        for halvings in range(31):
            res_try = residual(y_try)
            norm_try = np.abs(res_try).max(axis=1)
            worse = norm_try > norm
            worse &= active
            # once the 30 halvings have run out, the last trial is taken
            if halvings == 30 or not worse.any():
                break
            if lam is None:
                lam = np.ones((len(x), 1))
            lam[worse] *= 0.5
            y_try = y + lam * step
        # only active rows take the step
        if active.all():
            y, res, norm = y_try, res_try, norm_try
        else:
            np.copyto(y, y_try, where=active[:, None])
            np.copyto(res, res_try, where=active[:, None])
            np.copyto(norm, norm_try, where=active)
    if rows is None:
        return y
    roots[rows] = y
    return roots


def tamed_denominator(b: np.ndarray, dt: float) -> np.ndarray:
    """1 + dt |b| over the last axis of the drift b (..., d), shape (..., 1)."""
    # what np.linalg.norm(b, axis=-1, keepdims=True) computes, bit for bit
    return 1.0 + dt * np.sqrt(np.add.reduce(b * b, axis=-1, keepdims=True))


@dataclass
class StepRecord:
    """What the kernel evaluated on step i, per variant k and path p of its
    batch: the state x = X_i (K, P, d), the diffusion sig = sigma(t_i, x)
    (K, P, d, m), the tamed denominator 1 + dt |b(t_i, x)| (K, P, 1) (None
    for the other schemes), the increments dw (K, P, m), or (1, P, m) when
    the variants share them, and x_next = X_{i+1} (K, P, d) with the
    diverged paths frozen at their last finite state."""

    i: int
    x: np.ndarray
    sig: np.ndarray
    denom: Optional[np.ndarray]
    dw: np.ndarray
    x_next: np.ndarray


class Stepper:
    """The stepping kernel over a batch of paths.

    increments: (P, N, m) with N = grid.N and m = field.m; theta broadcasts
    to (K, P, d) for K variants of the P paths, variant k of path p starting
    from theta[k, p]: (d,), (P, d), (K, 1, d) or (K, P, d).  K is
    len(shifts), else theta's first axis when it has three, else 1.  The
    variants share the noise, or with shifts (K, N, m) variant k runs on the
    noise shifted by shifts[k]: its step i reads inc[:, i] + shifts[k, i].
    Variant 0 is the base, which a noise-shifted batch runs on the zero
    shift.  Iterating runs the N steps in order and yields each step's
    StepRecord after the divergence tagging; `theta` holds the (K, P, d)
    starts, and `diverged` and `first_bad` (K, P) (N+1 for a path that never
    diverged) are final after the last step.  `hist` is the noise as the
    coefficient callbacks read it: they see the states flattened to (K*P,
    d), row k*P + p being path p of variant k.  Iterate once.

    Once a row has diverged, the split-step scheme hands Newton only the
    live rows, with hist.take of them, and the frozen rows keep X_{i+1} =
    X_i; Newton in turn goes on with its still active rows alone once they
    are fewer than NEWTON_GATHER (1/8) of those it iterates.  So a callback
    may be given a subset of the rows, and reads which in hist.rows.  The
    explicit schemes evaluate every row on every step.
    """

    def __init__(
        self,
        field: CoefficientField,
        grid: TimeGrid,
        increments: np.ndarray,
        theta: np.ndarray,
        scheme: SchemeChoice,
        shifts: Optional[np.ndarray] = None,
    ):
        self.inc = np.asarray(increments, dtype=float)
        if self.inc.ndim != 3:
            raise InvalidParameterError(
                f"increments must have shape (P, {grid.N}, {field.m}), got {self.inc.shape}"
            )
        P, self.N, m = self.inc.shape
        if self.N != grid.N:
            raise InvalidParameterError(f"increments have {self.N} steps, the grid {grid.N}")
        if m != field.m:
            raise InvalidParameterError("noise dimension does not match the model")
        theta = np.asarray(theta, dtype=float)
        K = len(theta) if theta.ndim == 3 else 1
        if shifts is not None:
            shifts = np.asarray(shifts, dtype=float)
            K = len(shifts)
            if shifts.shape != (K, self.N, m) or K == 0:
                raise InvalidParameterError(
                    f"shifts must have shape (K, {self.N}, {m}), got {shifts.shape}"
                )
        try:
            theta = np.broadcast_to(theta, (K, P, field.d))
        except ValueError:
            raise InvalidParameterError(
                f"theta of shape {theta.shape} does not broadcast to {(K, P, field.d)}"
            ) from None
        # NaN fails the <= as well
        if not np.all(np.abs(theta) <= DIVERGENCE_BOUND):
            raise InvalidParameterError(
                f"theta must be finite with |theta| <= {DIVERGENCE_BOUND:.0e}"
            )
        if scheme.kind == IMPLICIT:
            _check_implicit_dt(field, grid)
        self.field, self.grid, self.scheme, self.theta = field, grid, scheme, theta
        self.hist = History(grid, self.inc, K, shifts)
        self._shifts = shifts
        self.diverged = np.zeros((K, P), dtype=bool)
        self.first_bad = np.full((K, P), self.N + 1, dtype=np.int64)

    def __iter__(self):
        field, scheme, hist = self.field, self.scheme, self.hist
        dt = self.grid.dt
        diverged, first_bad, shifts = self.diverged, self.first_bad, self._shifts
        x = self.theta.copy()
        shape = K, P, d = x.shape
        sig_shape, rows = shape + self.inc.shape[2:], (K * P, d)
        eye = np.eye(d)
        live = None  # once a row diverged, the rows that did not
        for i in range(self.N):
            t = i * dt
            xr = x.reshape(rows)  # the rows k*P + p the callbacks see
            if shifts is None:
                # a contiguous copy: inc[:, i] strides by N m entries
                dw = self.inc[None, :, i].copy()
            else:
                dw = shifts[:, i, None] + self.inc[None, :, i]
            denom = None
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if scheme.kind == IMPLICIT:
                    sig = field.diffusion(t, hist, xr).reshape(sig_shape)
                    # the root Y becomes X_{i+1} = Y + sigma dW in place
                    if live is None:
                        y = _newton_solve(field, t + dt, hist, xr, dt, scheme, i, eye)
                    else:
                        # the diverged rows stay frozen: Newton solves the live ones
                        y = xr.copy()
                        if len(live):
                            y[live] = _newton_solve(field, t + dt, live_hist, xr[live], dt,
                                                    scheme, i, eye)
                    x_next = y.reshape(shape)
                    x_next += np.einsum("...dm,...m->...d", sig, dw)
                else:
                    b = field.drift(t, hist, xr).reshape(shape)
                    sig = field.diffusion(t, hist, xr).reshape(sig_shape)
                    if scheme.kind == TAMED:
                        # |b| dt / (1 + dt |b|) < 1 for every drift value, and
                        # a NaN drift reaches the divergence tagging below
                        denom = tamed_denominator(b, dt)
                        drift_step = b * (dt / denom)
                    else:
                        drift_step = b * dt
                    x_next = x + drift_step + np.einsum("...dm,...m->...d", sig, dw)

                # NaN fails the <=, so non-finite states are tagged as well
                ok = np.abs(x_next).max(axis=2) <= DIVERGENCE_BOUND
            if not ok.all():
                bad = ~(ok | diverged)
                if bad.any():
                    first_bad[bad] = i + 1
                    diverged |= bad
                    live = np.flatnonzero(~diverged.reshape(-1))
                    live_hist = hist.take(live)
            if live is not None:
                # freeze diverged paths at their last finite state
                x_next[diverged] = x[diverged]
            yield StepRecord(i, x, sig, denom, dw, x_next)
            x = x_next


def simulate_batch(
    field: CoefficientField,
    grid: TimeGrid,
    increments: np.ndarray,
    theta: np.ndarray,
    scheme: SchemeChoice,
    shifts: Optional[np.ndarray] = None,
) -> Stepper:
    """The solved Stepper with every state stored in its `values` (K, P,
    N+1, d), diverged paths frozen at their last finite state from
    first_bad on.

    increments: (P, N, m); theta and shifts as for Stepper.
    """
    run = Stepper(field, grid, increments, theta, scheme, shifts)
    run.values = np.empty(run.theta.shape[:2] + (run.N + 1, field.d))
    run.values[:, :, 0] = run.theta
    for rec in run:
        run.values[:, :, rec.i + 1] = rec.x_next
    return run


class PathStepper(Stepper):
    """The Stepper of every single-path function: one path from spec.theta0
    on the noise w and its grid.  Iterating keeps its states (`path` once the
    last step ran) and raises DivergenceError (with w.path_index) in place of
    the record of the step at which the path diverges; a NewtonFailureError
    names w.path_index as well.  Another initial condition is another spec:
    dataclasses.replace(spec, theta0=...)."""

    def __init__(self, spec: ModelSpec, w: NoisePath, scheme: SchemeChoice):
        super().__init__(spec.field, w.grid, w.increments[None], spec.theta0, scheme)
        self.path_index = w.path_index
        self.values = np.empty((self.N + 1, spec.d))
        self.values[0] = self.theta[0, 0]

    def __iter__(self):
        try:
            for rec in super().__iter__():
                if self.diverged[0, 0]:
                    raise DivergenceError(self.first_bad[0, 0], self.path_index)
                self.values[rec.i + 1] = rec.x_next[0, 0]
                yield rec
        except NewtonFailureError as err:
            raise err.at_path(self.path_index) from None

    @property
    def path(self) -> StatePath:
        return StatePath(self.grid, self.field.d, self.values)


def simulate(
    spec: ModelSpec,
    w: NoisePath,
    scheme: SchemeChoice,
) -> StatePath:
    """Simulate one path of the base SDE on the noise w and its grid; raises
    DivergenceError on blow-up."""
    run = PathStepper(spec, w, scheme)
    for _ in run:
        pass
    return run.path


def _first_failure(fn, inc, start, err):
    """The error of the first path of a failing run fn(inc, start) (paths
    start, start+1, ...; err its error) that fails alone, naming that path.

    A run of paths fails when one of its paths fails alone, so bisection
    finds the first: the half that fails is kept, the left one first, at
    about twice the run's work.  When neither half fails alone the failure
    is the run's own, and err is returned.
    """
    while len(inc) > 1:
        half = len(inc) // 2
        for lo, hi in ((0, half), (half, len(inc))):
            try:
                fn(inc[lo:hi], start + lo)
            except MonosdeError as part_err:
                err, inc, start = part_err, inc[lo:hi], start + lo
                break
        else:
            return err
    # a path's error that does not know its path is told it
    if getattr(err, "path_index", 0) is None:
        err = err.at_path(start)
    return err


def _flush_stdio():
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):  # None, closed or unwritable
            pass


def _run_worker(chunk, ranges, fd, inherited):
    """The body of a forked worker: close the inherited readers and run
    chunk(start, count) for its ranges in order, pickling each result into
    the pipe fd as it ends, up to its first failing chunk, whose error is its
    last record.  Never returns: exits 0 if it wrote its records, else 1."""
    code = 1
    try:
        for fh in inherited:
            fh.close()
        with open(fd, "wb") as fh:
            for start, count in ranges:
                try:
                    out = chunk(start, count)
                except Exception as err:
                    out = err
                pickle.dump(out, fh, pickle.HIGHEST_PROTOCOL)
                fh.flush()
                if isinstance(out, Exception):
                    break
        code = 0
    except Exception:
        import traceback  # here: only a worker that cannot report pays for it

        traceback.print_exc()
    finally:
        try:
            _flush_stdio()
        finally:
            os._exit(code)


def _fork_chunks(chunk, ranges, n):
    """chunk(start, count) for each range in n workers forked from this
    process, worker w running ranges w, w+n, ...; the results in range order.
    Range i's record is read from worker i % n, so the first failure in range
    order is raised once read: a chunk's error, or WorkerLostError if that
    pipe ends first (WorkerStartError if a fork or pipe fails).  On a raise
    every worker is killed before the pipes close; all are reaped."""
    # a buffer that the workers inherit unflushed would be written again by each
    _flush_stdio()
    readers, pids = [], []
    try:
        try:
            for w in range(n):
                r, fd = os.pipe()
                readers.append(open(r, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        _run_worker(chunk, ranges[w::n], fd, readers)
                finally:
                    os.close(fd)
                pids.append(pid)
        except OSError as err:
            raise WorkerStartError(f"cannot start a worker process: {err}") from err
        parts = []
        for i, (start, _) in enumerate(ranges):
            try:
                part = pickle.load(readers[i % n])
            except (EOFError, pickle.UnpicklingError):  # the pipe ended, mid-record or not
                status = os.waitpid(pids.pop(i % n), 0)[1]
                raise WorkerLostError(start, os.waitstatus_to_exitcode(status)) from None
            if isinstance(part, Exception):
                raise part
            parts.append(part)
        return parts
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for fh in readers:
            fh.close()
        for pid in pids:
            os.waitpid(pid, 0)


def run_paths(fn, grid: TimeGrid, m: int, seed: int, n_paths: int, workers: int = 1):
    """The chunked Monte Carlo driver: fn(inc, start) on the (seed, path)
    increments (count, N, m) of paths start..start+count-1, for each chunk
    of chunk_size paths; the array fn returns, or each array of the tuple it
    returns, concatenated in path order.

    fn must treat each path on its own.  A failing run raises the error of
    its first failing path, as fn raises it for that path alone, whatever the
    chunk size and worker count: a chunk that raises a MonosdeError is
    bisected down to that path.  With workers > 1 and more than one chunk,
    the chunks run in min(workers, chunks) child processes forked from this
    one: fn reaches them by inheritance, so it may be a closure, and only the
    returned arrays and errors are pickled, one chunk at a time.  A worker
    that ends before reporting a chunk, say killed by a signal, raises
    WorkerLostError where that chunk falls in chunk order; a fork that fails
    raises WorkerStartError.  Every worker is reaped before this returns.
    """
    if n_paths < 1:
        raise InvalidParameterError("n_paths must be >= 1")
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")

    def chunk(start, count):
        inc = sample_increments(grid, m, seed, start, count)
        try:
            return fn(inc, start)
        except MonosdeError as err:
            raise _first_failure(fn, inc, start, err) from None

    size = chunk_size(grid.N, m, n_paths, workers)
    ranges = [(s, min(size, n_paths - s)) for s in range(0, n_paths, size)]
    # fork is known safe only on Linux (on macOS a child forked after system
    # frameworks such as numpy's BLAS are in use can crash or hang), and only
    # from a process running no other Python thread, whose held locks the
    # child would inherit locked
    forks_safely = sys.platform.startswith("linux") and threading.active_count() == 1
    if workers <= 1 or len(ranges) <= 1 or not forks_safely:
        parts = [chunk(s, c) for s, c in ranges]
    else:
        parts = _fork_chunks(chunk, ranges, min(workers, len(ranges)))
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def simulate_paths(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    seed: int,
    n_paths: int,
    workers: int = 1,
) -> np.ndarray:
    """Paths 0..n_paths-1 of the base SDE from spec.theta0 on their (seed,
    path) noise, values (n_paths, N+1, d); raises the DivergenceError or
    NewtonFailureError of the first failing path, with its path index."""

    def chunk(inc, start):
        out = simulate_batch(spec.field, grid, inc, spec.theta0, scheme)
        diverged = out.diverged[0]
        if np.any(diverged):
            # run_paths bisects to the first diverged path and names it
            raise DivergenceError(out.first_bad[0, int(np.argmax(diverged))])
        return out.values[0]

    return run_paths(chunk, grid, spec.m, seed, n_paths, workers)


def _earliest_divergence(first_bad: np.ndarray) -> DivergenceError:
    """The DivergenceError of the earliest first_bad over paths 0..n-1, with
    the first path that reached it."""
    k = int(np.argmin(first_bad))
    return DivergenceError(first_bad[k], k)


def live_paths(first_bad: np.ndarray, N: int) -> np.ndarray:
    """The mask of the paths that never diverged (first_bad N+1); raises
    DivergenceError at the earliest first_bad when divergence leaves fewer
    than 2 of them for an estimate."""
    live = first_bad > N
    if np.count_nonzero(live) < 2 and not np.all(live):
        raise _earliest_divergence(first_bad)
    return live


def sup_norms(values: np.ndarray) -> np.ndarray:
    """Pathwise sup of |X(t_i)| over the grid, values (B, N+1, d) -> (B,)."""
    return np.max(np.linalg.norm(values, axis=2), axis=1)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def stability_ratio(
    spec: ModelSpec,
    grid: TimeGrid,
    scheme: SchemeChoice,
    theta: np.ndarray,
    xi: np.ndarray,
    p: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> list[MCEstimate]:
    """E[ sup_t |X_xi - X_theta|^p ] / |xi - theta|^p with common random
    numbers, one estimate per row of xi (L, d) (a point (d,) is one row).

    The solutions of a chunk's paths from theta and from every xi run as one
    stacked batch (variants theta, then xi_1 .. xi_L), and each sup is folded
    over the steps.  Raises DivergenceError at the earliest step at which any
    solution of any path diverged, and InvalidParameterError, naming p and
    the first path, when a path's ratio leaves the floating-point range."""
    d = spec.d
    theta = np.asarray(theta, dtype=float).reshape(d)
    xi = np.asarray(xi, dtype=float).reshape(-1, d)
    if len(xi) == 0:
        raise InvalidParameterError("xi must hold at least one point")
    gaps = [float(np.linalg.norm(v - theta)) for v in xi]
    if 0.0 in gaps:
        raise InvalidParameterError("theta and xi must differ")

    def chunk(inc, start):
        run = Stepper(spec.field, grid, inc, np.vstack([theta, xi])[:, None], scheme)
        x = run.theta
        sup = np.linalg.norm(x[1:] - x[0], axis=-1)
        # a diverged path's frozen values may overflow; the run raises below
        with np.errstate(over="ignore", invalid="ignore"):
            for rec in run:
                x = rec.x_next
                np.maximum(sup, np.linalg.norm(x[1:] - x[0], axis=-1), out=sup)
            vals = sup ** p
        return vals.T, run.first_bad.min(axis=0)

    vals, first_bad = run_paths(chunk, grid, spec.m, seed, n_paths, workers)
    # first_bad is N+1 on paths that never diverged
    if np.any(first_bad <= grid.N):
        raise _earliest_divergence(first_bad)
    estimates = []
    for l, gap in enumerate(gaps):
        try:
            scale = gap**p
        except OverflowError:  # a Python float power raises where numpy gives inf
            scale = math.inf
        # a path's sup^p or |xi - theta|^p may overflow or underflow to 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratios = vals[:, l] / scale
        finite = np.isfinite(ratios)
        if not np.all(finite):
            k = int(np.argmin(finite))
            raise InvalidParameterError(
                f"E[sup |X_xi - X_theta|^p] / |xi - theta|^p at p = {p:g} is out of "
                f"floating-point range: path {k} has sup |X_xi - X_theta|^p = "
                f"{vals[k, l]:.3g} against |xi - theta|^p = {scale:.3g}"
            )
        estimates.append(mc_estimate(ratios))
    return estimates
