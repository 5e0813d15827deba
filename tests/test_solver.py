import contextlib
import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monosde import (
    CameronMartinPath,
    DivergenceError,
    InvalidParameterError,
    NewtonFailureError,
    SingularDiffusionError,
    directional_derivative,
    finite_difference_jacobian,
    gateaux_direction,
    jacobian,
    make_grid,
    malliavin_field,
    sample_noise,
    simulate,
    stability_ratio,
    zoo_lookup,
)
from monosde import shiftlab, solver
from monosde.core import chunk_size, mc_estimate, sample_increments
from monosde.errors import MonosdeError, WorkerLostError, WorkerStartError
from monosde.greeks import (
    _samples, _weight_table, constant_weight, gradients, identity_payoff, tanh_payoff,
)
from monosde.shiftlab import _ladder_samples, cameron_martin_check, clipped_sup_norm, gateaux_ladder
from monosde.models import CoefficientField, ModelSpec
from monosde.solver import (
    EULER,
    IMPLICIT,
    SCHEMES,
    TAMED,
    SchemeChoice,
    Stepper,
    live_paths,
    run_paths,
    simulate_batch,
    simulate_paths,
)
from monosde.variational import VariationalFactors
from test_variational import _diag, _twin_ginzburg_landau


ALL_SCHEMES = [SchemeChoice(EULER), SchemeChoice(TAMED), SchemeChoice(IMPLICIT)]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_constant_path(scheme):
    spec = zoo_lookup("gbm", {"mu": 0.0, "sigma": 0.0, "x0": 3.0})
    g = make_grid(1.0, 16)
    w = sample_noise(g, 1, seed=1)
    x = simulate(spec, w, scheme=scheme)
    assert np.all(x.values == 3.0)


def test_simulate_is_deterministic():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=2)
    a = simulate(spec, w, scheme=SchemeChoice(TAMED))
    b = simulate(spec, w, scheme=SchemeChoice(TAMED))
    assert np.array_equal(a.values, b.values)


def test_gbm_strong_convergence_order():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    n_paths = 512
    errs, dts = [], []
    fine = make_grid(1.0, 2**14)
    inc_fine = sample_increments(fine, 1, seed=3, start=0, count=n_paths)
    for N in (2**10, 2**12, 2**14):
        g = make_grid(1.0, N)
        inc = inc_fine.reshape(n_paths, N, 2**14 // N, 1).sum(axis=2)
        out = simulate_batch(spec.field, g, inc, spec.theta0, SchemeChoice(EULER))
        closed = spec.closed_form.state(inc, g, N)[:, 0]
        errs.append(np.mean(np.abs(out.values[0, :, -1, 0] - closed)))
        dts.append(g.dt)
    order = np.polyfit(np.log2(dts), np.log2(errs), 1)[0]
    assert 0.4 <= order <= 0.6


def _terminal_states(spec, inc, N, kind):
    """X_N(T) (B,) at T = 1 of d = 1 paths on their increments inc (B, M, 1)
    summed to N steps; no path may diverge."""
    inc = inc.reshape(len(inc), N, -1, 1).sum(axis=2)
    run = Stepper(spec.field, make_grid(1.0, N), inc, spec.theta0, SchemeChoice(kind))
    for rec in run:
        pass
    assert not run.diverged.any()
    return rec.x_next[0, :, 0]


@pytest.mark.parametrize(
    "name, params, lo, hi",
    [
        # multiplicative noise: order 1/2 for tamed Euler (Hutzenthaler,
        # Jentzen & Kloeden 2012) and split-step backward Euler (Higham, Mao
        # & Stuart 2002); the fitted orders were 0.57-0.58
        ("ginzburg_landau", {"x0": 1.0}, 0.4, math.inf),
        # additive noise: order 1; the fitted orders were 0.99-1.02
        ("quintic", {}, 0.85, 1.15),
        # GL from x0 = 3, where the cubic drift dominates the first steps;
        # the fitted orders were 0.59-0.61
        ("ginzburg_landau", {"x0": 3.0}, 0.4, math.inf),
    ],
)
def test_superlinear_strong_convergence_order(name, params, lo, hi):
    # mean |X_N(T) - X_ref(T)| over 512 paths against split-step implicit at
    # N = 2^14, whose increments summed are the coarse increments
    spec = zoo_lookup(name, params)
    inc = sample_increments(make_grid(1.0, 2**14), 1, seed=3, start=0, count=512)
    ref = _terminal_states(spec, inc, 2**14, IMPLICIT)
    Ns = (2**6, 2**8, 2**10)
    for kind in SCHEMES:
        errs = [np.mean(np.abs(_terminal_states(spec, inc, N, kind) - ref)) for N in Ns]
        order = np.polyfit(np.log2([1.0 / N for N in Ns]), np.log2(errs), 1)[0]
        assert lo <= order <= hi, kind


def _terminal_jacobians(spec, inc, N, kind):
    """J_N(T) (B,) at T = 1 of d = 1 paths on their increments inc (B, M, 1)
    summed to N steps, carried along the step records as the greeks pass
    does, so that only J at the current step is held; no path may diverge."""
    inc = inc.reshape(len(inc), N, -1, 1).sum(axis=2)
    run = Stepper(spec.field, make_grid(1.0, N), inc, spec.theta0, SchemeChoice(kind))
    vf = VariationalFactors(run)
    J = np.ones((len(inc), 1, 1))
    for rec in run:
        vf.take(rec)
        J = J + vf.amat.transpose(2, 0, 1) @ J  # amat is batch-last (d, d, B)
    assert not run.diverged.any()
    return J[:, 0, 0]


@pytest.mark.parametrize("x0", [1.0, 3.0])
def test_jacobian_strong_convergence_order(x0):
    # mean |J_N(T) - J_ref(T)| over 256 paths of GL against split-step
    # implicit at N = 2^14 on the same summed increments; the bound was fixed
    # before the orders were seen: Euler and split-step fitted 0.69 and 0.67
    # at x0 = 1, 0.98 and 0.74 at x0 = 3.  Tamed Euler's J differentiates a
    # step other than the one the kernel takes (ROADMAP item 1), so it waits
    spec = zoo_lookup("ginzburg_landau", {"x0": x0})
    inc = sample_increments(make_grid(1.0, 2**14), 1, seed=3, start=0, count=256)
    ref = _terminal_jacobians(spec, inc, 2**14, IMPLICIT)
    Ns = (2**6, 2**8, 2**10)
    for kind in (EULER, IMPLICIT):
        errs = [np.mean(np.abs(_terminal_jacobians(spec, inc, N, kind) - ref)) for N in Ns]
        order = np.polyfit(np.log2([1.0 / N for N in Ns]), np.log2(errs), 1)[0]
        assert order >= 0.4, kind


def test_taming_necessity_divergence_counts():
    # theta^2 dt > 2 makes the first explicit-Euler step jump past the
    # divergence threshold; tamed and split-step stay finite
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0, "x0": 10.0})
    g = make_grid(2.0, 64)
    inc = sample_increments(g, 1, seed=4, start=0, count=200)
    out_e = simulate_batch(spec.field, g, inc, spec.theta0, SchemeChoice(EULER))
    out_t = simulate_batch(spec.field, g, inc, spec.theta0, SchemeChoice(TAMED))
    out_i = simulate_batch(spec.field, g, inc, spec.theta0, SchemeChoice(IMPLICIT))
    assert out_e.diverged.sum() >= 2
    assert out_t.diverged.sum() == 0
    assert out_i.diverged.sum() == 0


def test_divergence_bookkeeping_is_pinned():
    # Explicit Euler on GL from x0 = 10 (rows 0, 3) and nearby starts; the
    # figures were recorded before the kernel's bookkeeping was rewritten, the
    # frozen values again when the GL drift's cube became u * u * u.
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0, "x0": 10.0})
    g = make_grid(2.0, 64)
    inc = sample_increments(g, 1, seed=4, start=0, count=6)
    theta = np.array([[10.0], [1.0], [8.0], [10.0], [9.0], [8.5]])
    out = simulate_batch(spec.field, g, inc, theta, SchemeChoice(EULER))
    assert out.diverged[0].tolist() == [True, False, False, True, True, True]
    assert out.first_bad[0].tolist() == [7, 65, 65, 7, 7, 7]
    frozen = {
        0: 4.040528731136307e132,
        3: 4.728300469951216e136,
        4: 8.104052600291233e74,
        5: 3.9157253026707628e59,
    }
    for b, value in frozen.items():
        assert np.all(out.values[0, b, 6:, 0] == value)
        assert out.values[0, b, 5, 0] != value
    assert out.values[0, 1, -1, 0] == 0.6769377719352049
    assert out.values[0, 2, -1, 0] == 0.909961052445855


@pytest.mark.parametrize(
    "kind, frozen",
    [
        (EULER, (0.20276968377273313, -0.25230705764548067)),
        (TAMED, (0.20396940764826396, -0.25041544047387077)),
    ],
)
def test_non_finite_drift_is_tagged_at_its_step(kind, frozen):
    # drift turns NaN on path 1 at step 5 and +inf on path 3 at step 9
    g = make_grid(1.0, 16)

    def drift(t, hist, x):
        b = -x.copy()
        i = int(round(t / g.dt))
        if i == 5:
            b[1] = np.nan
        if i == 9:
            b[3] = np.inf
        return b

    field = CoefficientField(
        1,
        1,
        drift,
        lambda t, h, x: np.ones((x.shape[0], 1, 1)),
        lambda t, h, x: -np.ones((x.shape[0], 1, 1)),
        lambda t, h, x: np.zeros((x.shape[0], 1, 1, 1)),
    )
    inc = sample_increments(g, 1, seed=11, start=0, count=4)
    out = simulate_batch(field, g, inc, np.array([0.5]), SchemeChoice(kind))
    assert out.diverged[0].tolist() == [False, True, False, True]
    assert out.first_bad[0].tolist() == [17, 6, 17, 10]
    assert np.all(np.isfinite(out.values))
    assert np.all(out.values[0, 1, 5:, 0] == frozen[0])
    assert np.all(out.values[0, 3, 9:, 0] == frozen[1])


def test_simulate_raises_divergence_with_step():
    spec = zoo_lookup("ginzburg_landau", {"x0": 10.0})
    g = make_grid(2.0, 64)
    w = sample_noise(g, 1, seed=5)
    with pytest.raises(DivergenceError) as exc:
        simulate(spec, w, scheme=SchemeChoice(EULER))
    assert 1 <= exc.value.step <= 64


def _chunks(N, m, n_paths, workers):
    """The path counts of the chunks run_paths runs n_paths paths in at that
    worker count."""
    size = chunk_size(N, m, n_paths, workers)
    return [min(size, n_paths - s) for s in range(0, n_paths, size)]


@contextlib.contextmanager
def _chunks_of(size):
    """run_paths runs chunks of size paths (those of chunk_size when None)."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(solver, "chunk_size", lambda N, m, n_paths, workers: size)
        yield


@pytest.mark.parametrize("workers", [1, 2])
def test_stability_ratio_reports_the_earliest_divergence_of_the_run(workers):
    # 8192 paths in two chunks or more: the first chunk's earliest divergence
    # is at step 8, the run's is at step 7 on a path of a later chunk
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(2.0, 8)
    scheme = SchemeChoice(EULER)
    theta, xi = np.array([1.5]), np.array([1.6])
    inc = sample_increments(g, 1, 9, 0, 8192)
    first_bad = np.minimum(
        simulate_batch(spec.field, g, inc, theta, scheme).first_bad[0],
        simulate_batch(spec.field, g, inc, xi, scheme).first_bad[0],
    )
    chunks = _chunks(g.N, 1, 8192, workers)
    assert len(chunks) >= 2
    assert first_bad[:chunks[0]].min() > first_bad.min()
    with pytest.raises(DivergenceError) as exc:
        stability_ratio(spec, g, scheme, theta, xi, 2.0, 8192, 9, workers)
    assert exc.value.step == first_bad.min()
    assert exc.value.path_index == np.argmin(first_bad)


@pytest.mark.parametrize(
    "first_bad, live",
    [
        ([9, 7, 9], [True, False, True]),  # two paths left
        ([9, 9], [True, True]),
        ([9], [True]),  # one path that never diverged is not a divergence
    ],
    ids=["two_left", "none_diverged", "one_path"],
)
def test_live_paths_keeps_an_estimate_of_two_paths(first_bad, live):
    assert live_paths(np.array(first_bad), 8).tolist() == live


@pytest.mark.parametrize(
    "first_bad, step", [([9, 7, 6], 6), ([5, 3], 3), ([4], 4)],
    ids=["one_left", "none_left", "one_path"],
)
def test_live_paths_raises_at_the_earliest_step_below_two_paths(first_bad, step):
    with pytest.raises(DivergenceError) as exc:
        live_paths(np.array(first_bad), 8)
    assert exc.value.step == step


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_run_paths_concatenates_each_array_in_path_order(workers):
    g = make_grid(1.0, 4)

    def fn(inc, start):
        idx = start + np.arange(len(inc))
        # each row carries its chunk's start: a worker process cannot report
        # it through a side effect
        return np.full(len(inc), start), idx, inc[:, :, 0], np.stack([idx, -idx], axis=1)

    with _chunks_of(256):
        starts, idx, inc, pairs = run_paths(fn, g, 1, 5, 600, workers)
        # a single array is concatenated as well
        single = run_paths(lambda inc, start: inc, g, 2, 5, 300, workers)
    # each chunk start seen exactly once, by its own rows
    assert np.array_equal(starts, np.repeat([0, 256, 512], [256, 256, 88]))
    assert np.array_equal(idx, np.arange(600))
    assert np.array_equal(inc, sample_increments(g, 1, 5, 0, 600)[:, :, 0])
    assert np.array_equal(pairs[:, 1], -np.arange(600))
    assert np.array_equal(single, sample_increments(g, 2, 5, 0, 300))


def test_run_paths_rejects_an_empty_run():
    with pytest.raises(InvalidParameterError, match="n_paths"):
        run_paths(lambda inc, start: inc, make_grid(1.0, 4), 1, 5, 0)


@pytest.mark.parametrize("workers", [0, -5])
def test_run_paths_rejects_workers_below_one(workers):
    with pytest.raises(InvalidParameterError, match="workers must be >= 1"):
        run_paths(lambda inc, start: inc, make_grid(1.0, 4), 1, 5, 8, workers)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"kind": "milstein"}, "^unknown scheme 'milstein'; choose from "),
        ({"newton_tol": 0.0}, "^newton_tol must be > 0$"),
        ({"newton_tol": math.nan}, "^newton_tol must be > 0$"),
        ({"newton_max_iter": 0}, "^newton_max_iter must be >= 1$"),
    ],
    ids=["kind", "tol_zero", "tol_nan", "max_iter"],
)
def test_scheme_choice_rejects_invalid_settings(kw, message):
    with pytest.raises(InvalidParameterError, match=message):
        SchemeChoice(**{"kind": TAMED, **kw})


def _failing_paths(inc, start):
    """Path 133 diverges at step 7, late: its chunk of 64 paths (the third)
    fails after the fourth, which holds path 200, failing at once."""
    paths = range(start, start + len(inc))
    if 133 in paths:
        if len(inc) == 64:
            time.sleep(0.3)  # so the fourth chunk's error is raised first in time
        raise DivergenceError(7, 133)
    if 200 in paths:
        raise InvalidParameterError("path 200")
    return inc


def test_run_paths_raises_the_first_failing_chunk_in_path_order():
    g = make_grid(1.0, 4)
    raised = []
    for workers in (1, 2):
        with _chunks_of(64), pytest.raises(DivergenceError) as info:
            run_paths(_failing_paths, g, 1, 5, 256, workers)
        raised.append(info.value)
        _assert_no_child()
    serial, pooled = raised
    assert type(pooled) is type(serial)
    assert str(pooled) == str(serial) == "state diverged at step 7 (path 133)"
    assert vars(pooled) == vars(serial)


#: path -> step at which it fails Newton alone, with residual 1 + path / 1000
_NEWTON_FAILS = {30: 6, 45: 2, 51: 4, 90: 1}


def _newton_failing_paths(inc, start):
    """Newton fails, as a batch does, at the earliest failing step of the
    batch's paths with the largest residual among them, naming no path."""
    steps = {p: s for p, s in _NEWTON_FAILS.items() if start <= p < start + len(inc)}
    if steps:
        step = min(steps.values())
        raise NewtonFailureError(step, 1 + max(steps) / 1000, 1e-10)
    return inc


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("size", [1, 7, 64, None])
def test_run_paths_raises_the_first_failing_paths_own_error(workers, size):
    # each chunk that fails is bisected to its first failing path, path 30,
    # whose own error names it, whatever the chunking: a 64-path chunk alone
    # raises at step 2 with path 51's residual
    with _chunks_of(size), pytest.raises(NewtonFailureError) as info:
        run_paths(_newton_failing_paths, make_grid(1.0, 4), 1, 5, 100, workers)
    assert vars(info.value) == {"step": 6, "residual": 1.03, "tol": 1e-10, "path_index": 30}
    assert str(info.value) == "Newton residual 1.030e+00 > tol 1.000e-10 at step 6 (path 30)"


def _batch_failing(inc, start):
    """Fails on a run of more than 4 paths that holds path 14."""
    if len(inc) > 4 and start <= 14 < start + len(inc):
        raise InvalidParameterError(f"a run of {len(inc)} paths from {start}")
    return inc


def test_run_paths_raises_a_chunks_own_error_when_no_path_fails_alone():
    with _chunks_of(6), pytest.raises(InvalidParameterError, match="^a run of 6 paths from 12$"):
        run_paths(_batch_failing, make_grid(1.0, 4), 1, 5, 24)


def _assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_LINUX_ONLY = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                 reason="run_paths forks only on Linux")


@pytest.mark.parametrize("workers, n_chunks, forked", [
    pytest.param(8, 3, 3, marks=_LINUX_ONLY), (1, 3, 0), (8, 1, 0),
])
def test_run_paths_forks_one_process_per_chunk_at_most(monkeypatch, workers, n_chunks, forked):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    g = make_grid(1.0, 4)
    with _chunks_of(64):
        pids, inc = run_paths(
            lambda inc, start: (np.full(len(inc), os.getpid()), inc), g, 1, 5, 64 * n_chunks,
            workers,
        )
    assert len(forks) == forked
    # with workers, the chunks ran in them, not here
    assert set(pids.tolist()) == (set(forks) if forked else {os.getpid()})
    assert np.array_equal(inc, sample_increments(g, 1, 5, 0, 64 * n_chunks))
    _assert_no_child()


@_LINUX_ONLY
@pytest.mark.parametrize("end, how", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal SIGKILL"),
    (lambda: os._exit(3), "exited with status 3"),
], ids=["sigkill", "exit"])
@pytest.mark.parametrize("fails_at", [None, 0, 128])
def test_run_paths_reports_a_lost_worker(end, how, fails_at):
    # worker 0 runs the chunks from 0 and 128, worker 1 those from 64 and 192
    # and ends in the second after reporting the first, so the chunk from 192
    # is the one it lost; the first failure in chunk order is raised
    parent = os.getpid()

    def fn(inc, start):
        if os.getpid() != parent:  # never end the test process itself
            if start == 192:
                end()
            if start == fails_at:
                raise DivergenceError(3, start)
        return inc

    with _chunks_of(64), pytest.raises(MonosdeError) as info:
        run_paths(fn, make_grid(1.0, 4), 1, 5, 256, 2)
    if fails_at is not None:
        assert str(info.value) == f"state diverged at step 3 (path {fails_at})"
    else:
        assert type(info.value) is WorkerLostError and isinstance(info.value, RuntimeError)
        assert str(info.value) == f"a worker process {how} before it reported the chunk from path 192"
    _assert_no_child()


@_LINUX_ONLY
def test_run_paths_raises_a_lost_chunk_without_waiting_for_later_ones(tmp_path):
    # worker 1 ends in its first chunk (from 64) while worker 0's second
    # chunk (from 128) waits for a file never created, then marks that it
    # finished: the run must raise at chunk 64 and kill worker 0 unfinished
    parent = os.getpid()
    finished = tmp_path / "finished"

    def fn(inc, start):
        if os.getpid() != parent:
            if start == 64:
                os.kill(os.getpid(), signal.SIGKILL)
            if start == 128:
                deadline = time.monotonic() + 30
                while not (tmp_path / "never").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                finished.touch()
        return inc

    with _chunks_of(64), pytest.raises(WorkerLostError) as info:
        run_paths(fn, make_grid(1.0, 4), 1, 5, 256, 2)
    assert info.value.first_path == 64 and info.value.exitcode == -signal.SIGKILL
    _assert_no_child()
    assert not finished.exists()


def _second_fork_fails(monkeypatch):
    """os.fork fails from its second call on, as at a limit on processes."""
    fork, forks = os.fork, []

    def second_fails():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", second_fails)


@_LINUX_ONLY
def test_run_paths_raises_a_typed_error_when_a_fork_fails(monkeypatch, tmp_path):
    # the first worker, still running when the second fork fails, is killed
    # unfinished and reaped
    _second_fork_fails(monkeypatch)
    finished = tmp_path / "finished"

    def fn(inc, start):
        time.sleep(30)
        finished.touch()
        return inc

    with _chunks_of(64), pytest.raises(WorkerStartError) as info:
        run_paths(fn, make_grid(1.0, 4), 1, 5, 256, 2)
    assert isinstance(info.value, RuntimeError)
    assert str(info.value) == (
        "cannot start a worker process: [Errno 11] Resource temporarily unavailable"
    )
    _assert_no_child()
    assert not finished.exists()


@_LINUX_ONLY
def test_run_paths_writes_a_pending_partial_line_once():
    # the workers must not inherit, and write again, what is still buffered
    script = textwrap.dedent("""
        import os, sys
        import numpy as np
        from monosde import make_grid
        from monosde.solver import run_paths
        sys.stdout.write("partial")
        pids = run_paths(lambda inc, start: np.full(len(inc), os.getpid()), make_grid(1.0, 4),
                         1, 5, 4, 2)
        print("", len(set(pids.tolist()) - {os.getpid()}))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # a piped stdout is then block-buffered
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "partial 2\n"


def _serial_pids(monkeypatch):
    """The pids that run 4 chunks at workers = 4, where forking fails."""
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    with _chunks_of(64):
        return run_paths(lambda inc, start: np.full(len(inc), os.getpid()), make_grid(1.0, 4),
                         1, 5, 256, 4)


def test_run_paths_runs_serially_off_linux(monkeypatch):
    monkeypatch.setattr(sys, "platform", "darwin")
    assert np.array_equal(_serial_pids(monkeypatch), np.full(256, os.getpid()))


def test_run_paths_runs_serially_beside_another_thread(monkeypatch):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert np.array_equal(_serial_pids(monkeypatch), np.full(256, os.getpid()))
    finally:
        release.set()
        other.join()


class _Captured(Exception):
    pass


def _chunk_fn(module, call):
    """The chunk function that call() hands to module.run_paths."""

    def capture(fn, *args, **kwargs):
        raise _Captured(fn)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "run_paths", capture)
        with pytest.raises(_Captured) as info:
            call()
    return info.value.args[0]


def _outcome(fn, g, m, seed, n_paths, size=None, workers=1):
    """The bytes of each array run_paths returns, or the type, message and
    attributes of the error it raises."""
    try:
        with _chunks_of(size):
            out = run_paths(fn, g, m, seed, n_paths, workers)
    except MonosdeError as err:
        return type(err), str(err), vars(err)
    return [r.tobytes() for r in (out if isinstance(out, tuple) else (out,))]


@settings(max_examples=30, deadline=None, database=None)
@given(
    model=st.sampled_from(["gbm", "ginzburg_landau"]),
    kind=st.sampled_from([EULER, TAMED, IMPLICIT]),
    x0=st.sampled_from([1.0, 6.0]),
    N=st.integers(1, 16),
    n_paths=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
def test_chunk_size_does_not_change_results(model, kind, x0, N, n_paths, seed):
    # every chunk size gives the bytes, or the error, of the rule's chunks,
    # for every run_paths chunk function: the stored batch, the BEL and FD
    # rows of the greeks pass, the ladder, the Cameron-Martin check, the
    # stability ratio and simulate_paths; x0 = 6 makes Euler GL paths
    # diverge, and N >= 2 keeps dt * L_mono < 1 for the implicit scheme
    spec = zoo_lookup(model, {"x0": x0})
    if kind == IMPLICIT:
        N = max(N, 2)
    g = make_grid(1.0, N)
    scheme = SchemeChoice(kind)
    # the linear weight has no mass at N = 1
    a = _weight_table((constant_weight(), lambda s, t: 1.0 + s), g)
    h = CameronMartinPath.constant(g, 1.0)
    eps = np.array([0.5, 0.25])

    def fn(inc, start):
        out = simulate_batch(spec.field, g, inc, spec.theta0, scheme)
        return (out.values[0], out.diverged[0], out.first_bad[0],
                *_samples(spec.field, g, scheme, spec.theta0, identity_payoff(), inc, a, 1e-3),
                *_ladder_samples(spec, g, scheme, h, eps, inc))

    fns = [
        fn,
        _chunk_fn(shiftlab, lambda: cameron_martin_check(
            spec, g, scheme, h, clipped_sup_norm(10.0), n_paths, seed)),
        _chunk_fn(solver, lambda: stability_ratio(
            spec, g, scheme, spec.theta0, spec.theta0 + [[0.1], [0.2]], 2.0, n_paths, seed)),
        _chunk_fn(solver, lambda: simulate_paths(spec, g, scheme, seed, n_paths)),
    ]
    for f in fns:
        fixed = _outcome(f, g, 1, seed, n_paths)
        for k in range(1, n_paths + 1):
            assert _outcome(f, g, 1, seed, n_paths, k) == fixed


def _threshold_sigma_spec():
    """d = m = 1, zero drift from 0, sigma = 1 up to x = 1 and 1e-13 beyond:
    BEL finds sigma near singular on each path at its first step above 1."""

    def zeros(shape):
        return lambda t, h, x: np.zeros((x.shape[0],) + shape)

    field = CoefficientField(
        1, 1, zeros((1,)), lambda t, h, x: np.where(x[:, :, None] > 1.0, 1e-13, 1.0),
        zeros((1, 1)), zeros((1, 1, 1)),
    )
    return ModelSpec("threshold_sigma", field, {}, np.zeros(1))


def _newton_ladder(workers):
    g = make_grid(1.0, 16)
    return gateaux_ladder(
        zoo_lookup("ginzburg_landau"), g, SchemeChoice(IMPLICIT, newton_max_iter=3),
        CameronMartinPath.constant(g, 1.0), [0.5, 0.25], [0.1], n_paths=40, seed=1, workers=workers,
    )


def _newton_greeks(workers):
    g = make_grid(1.0, 16)
    return gradients(
        zoo_lookup("ginzburg_landau"), g, SchemeChoice(IMPLICIT, newton_max_iter=3),
        identity_payoff(), 40, 1, workers, weights=(constant_weight(),), eps=1e-3,
    )


def _singular_greeks(workers):
    g = make_grid(1.0, 16)
    return gradients(
        _threshold_sigma_spec(), g, SchemeChoice(EULER), identity_payoff(), 40, 2, workers,
        weights=(constant_weight(),), eps=1e-3,
    )


def _diverging_paths(workers):
    spec = zoo_lookup("ginzburg_landau", {"x0": 3.0})
    return simulate_paths(spec, make_grid(2.0, 8), SchemeChoice(EULER), 3, 40, workers)


#: run -> (type, message) of its first failing path's error; the earliest
#: failing step of the 40 paths is on a later path (noted)
_FAILING_RUNS = {
    # path 7 at step 3
    "ladder_newton": (_newton_ladder, NewtonFailureError,
                      "Newton residual 3.244e-10 > tol 1.000e-10 at step 5 (path 1)"),
    # path 14 at step 5
    "greeks_newton": (_newton_greeks, NewtonFailureError,
                      "Newton residual 1.197e-09 > tol 1.000e-10 at step 6 (path 1)"),
    # path 23 at step 5
    "greeks_singular": (_singular_greeks, SingularDiffusionError,
                        "diffusion below 1/1e+12 at step 9 (path 2)"),
    # path 9 at step 7
    "simulate_divergence": (_diverging_paths, DivergenceError,
                            "state diverged at step 8 (path 7)"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(_FAILING_RUNS))
def test_a_failing_run_raises_its_first_failing_paths_error(monkeypatch, case, workers):
    # the same error, naming the first failing path, at chunks of 1 and 7
    # paths and at the rule's size (40 paths at workers 1, 20 at workers 2)
    run, cls, message = _FAILING_RUNS[case]
    raised = []
    for size in (1, 7, None):
        with monkeypatch.context() as mp:
            if size is not None:
                mp.setattr(solver, "chunk_size", lambda N, m, n_paths, workers: size)
            with pytest.raises(MonosdeError) as info:
                run(workers)
        raised.append((type(info.value), str(info.value), vars(info.value)))
    assert raised[0] == raised[1] == raised[2]
    assert raised[0][:2] == (cls, message)


def test_estimators_do_not_depend_on_the_worker_count():
    # 1100 paths are one chunk at workers 1 and span two at workers 2
    spec = zoo_lookup("quintic")
    g = make_grid(1.0, 16)
    scheme = SchemeChoice(TAMED)
    assert [len(_chunks(g.N, 1, 1100, w)) for w in (1, 2)] == [1, 2]

    def run(workers):
        (ratio,) = stability_ratio(
            spec, g, scheme, np.array([1.0]), np.array([1.1]), 2.0, 1100, 8, workers
        )
        return [a.tobytes() for a in (ratio.mean, ratio.stderr)]

    assert run(1) == run(2)


#: sha256 of the means and stderrs of stability_ratio from theta0 against two
#: xi rows (GL, twin GL; N = 16, 64 paths, seed 5), per scheme
_STABILITY_PINS = {
    (EULER, "gl"): "e069ab486c4f8782b5ef99b98cc1e89f64b1cf9cc1c63dc327035eca161353b8",
    (EULER, "twin_gl"): "587ac2dae7a0bcf576932398857257b353437056e569c080d5db470d8ac207d6",
    (TAMED, "gl"): "0f24c541292962fb0b0a6e56dc18fc24caa233e8df8998428a36a76924956f7c",
    (TAMED, "twin_gl"): "e0fa63c445f4ff087fe0dd4cbd4c79148b9d90d22e2514a1d1930be629fa9190",
    (IMPLICIT, "gl"): "a5b751f753e558f43e3fe2380b4bec996fab77ac3a7c79e9ed784589cd1647a9",
    (IMPLICIT, "twin_gl"): "e58e0f357ad33976a4de4111a588701b8d2f02255c49410e7893658c52389670",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, model", sorted(_STABILITY_PINS))
def test_stability_ratio_bytes_are_pinned(kind, model, workers):
    if model == "gl":
        spec = zoo_lookup("ginzburg_landau")
    else:
        spec = ModelSpec("twin_gl", _twin_ginzburg_landau(1.0), {}, np.array([1.0, -0.5]))
    xi = spec.theta0 + np.array([[0.25], [-0.5]])
    got = stability_ratio(
        spec, make_grid(1.0, 16), SchemeChoice(kind), spec.theta0, xi, 2.0, 64, 5, workers
    )
    data = b"".join(a.tobytes() for r in got for a in (r.mean, r.stderr))
    assert hashlib.sha256(data).hexdigest() == _STABILITY_PINS[kind, model]


def test_stability_ratio_gbm_scale_invariant():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 256)
    ratios = [
        r.mean[0]
        for r in stability_ratio(
            spec, g, SchemeChoice(EULER), np.array([1.0]), 1.0 + np.array([[1e-1], [1e-2], [1e-3]]),
            p=2.0, n_paths=1024, seed=9,
        )
    ]
    assert max(ratios) / min(ratios) - 1.0 < 1e-10


def test_stability_ratio_deterministic_linear():
    # sigma = 0, b = -x: the ratio is the squared Euler decay factor
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.0})
    g = make_grid(1.0, 512)
    (r,) = stability_ratio(
        spec, g, SchemeChoice(EULER), np.array([1.0]), np.array([1.5]),
        p=2.0, n_paths=16, seed=10,
    )
    assert r.mean[0] == pytest.approx(1.0)  # sup over t includes t = 0
    # and the terminal-decay version against e^{-2T} via the recursion
    assert (1 - g.dt) ** (2 * g.N) == pytest.approx(math.exp(-2.0), abs=5 * g.dt)


def test_stability_ratio_rejects_equal_points():
    spec = zoo_lookup("gbm")
    for xi, message in ((np.array([1.0]), "must differ"), (np.array([[1.5], [1.0]]), "must differ"),
                        (np.empty((0, 1)), "at least one point")):
        with pytest.raises(InvalidParameterError, match=message):
            stability_ratio(
                spec, make_grid(1.0, 8), SchemeChoice(EULER),
                np.array([1.0]), xi, p=2.0, n_paths=8, seed=0,
            )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "model, params, theta, xi, p, path, sup_p, gap_p",
    [
        ("gbm", {"mu": 5.0}, 1.0, 2.0, 200.0, 0, "inf", "1"),  # every path's sup^p overflows
        # sup^p and |xi - theta|^p underflow to 0
        ("gbm", {"mu": 0.05}, 1.0, 1.001, 200.0, 0, "0", "0"),
        # path 1 is the first whose sup^p overflows
        ("gbm", {"mu": 3.75}, 1.0, 2.0, 200.0, 1, "inf", "1"),
        # |xi - theta|^p overflows a Python float, which raises where numpy
        # gives inf
        ("ou", {}, 0.0, 1e150, 3.0, 0, "inf", "inf"),
    ],
    ids=["sup_overflows", "gap_underflows", "some_sups_overflow", "gap_overflows"],
)
def test_stability_ratio_out_of_range_names_p_and_the_path(
    model, params, theta, xi, p, path, sup_p, gap_p,
):
    # the estimate is refused, quietly, naming p and the first path whose
    # ratio is not finite, where it was inf or NaN with a warning
    spec = zoo_lookup(model, params)
    with pytest.raises(InvalidParameterError) as exc:
        stability_ratio(
            spec, make_grid(1.0, 16), SchemeChoice(EULER), np.array([theta]),
            np.array([xi]), p=p, n_paths=64, seed=1,
        )
    assert str(exc.value) == (
        f"E[sup |X_xi - X_theta|^p] / |xi - theta|^p at p = {p:g} is out of "
        f"floating-point range: path {path} has sup |X_xi - X_theta|^p = {sup_p} "
        f"against |xi - theta|^p = {gap_p}"
    )


def test_scheme_consistency_on_lipschitz_model():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    cs = []
    for N in (256, 512):
        g = make_grid(1.0, N)
        w = sample_noise(g, 1, seed=11)
        paths = [simulate(spec, w, scheme=s).values for s in ALL_SCHEMES]
        worst = max(
            float(np.max(np.abs(paths[a] - paths[b])))
            for a in range(3)
            for b in range(a + 1, 3)
        )
        cs.append(worst / g.dt)
    assert cs[1] <= 2.0 * cs[0]  # O(dt) agreement, stable constant


def test_split_step_matches_hand_recursion_on_ou():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    g = make_grid(1.0, 128)
    w = sample_noise(g, 1, seed=12)
    x = simulate(spec, w, scheme=SchemeChoice(IMPLICIT))
    manual = np.empty(g.N + 1)
    manual[0] = spec.theta0[0]
    for i in range(g.N):
        y = manual[i] / (1.0 + g.dt)
        manual[i + 1] = y + 0.5 * w.increments[i, 0]
    assert np.max(np.abs(x.values[:, 0] - manual)) < 1e-10


def test_implicit_requires_small_dt():
    spec = zoo_lookup("gbm", {"mu": 2.0, "sigma": 0.1})  # L_mono = 2
    g = make_grid(1.0, 1)  # dt = 1 -> dt L = 2 >= 1
    w = sample_noise(g, 1, seed=13)
    with pytest.raises(InvalidParameterError):
        simulate(spec, w, scheme=SchemeChoice(IMPLICIT))


def _gl_implicit(eta, x0, N, count=16, field=None, scheme=None):
    spec = zoo_lookup("ginzburg_landau", {"eta": eta, "x0": x0})
    g = make_grid(1.0, N)
    inc = sample_increments(g, 1, seed=5, start=0, count=count)
    return simulate_batch(
        field or spec.field, g, inc, spec.theta0, scheme or SchemeChoice(IMPLICIT)
    )


#: (eta, x0, N, sha256 of the values) of 16-path GL batches: the digests of
#: the 16 single-path runs stacked, recorded while a batch still iterated
#: Newton on every path until its slowest one converged, and again when the
#: GL drift's cube became u * u * u
_KERNEL_PINS = [
    (1.0, 1.0, 4, "8b5efc4fc50e0f77eee257c8e1c47860ba997e509e6a294747b5a0dcfb47dc37"),
    (1.0, 1.0, 64, "0e23fc137d89f046ccfc0f2740ddb37ae4202e8458f4d498b4c86369ec1e3d72"),
    (1.0, 3.0, 4, "13ea75d45a2e385993b5116f4b084003f0c64450a038dc4462646b3c784203aa"),
    (1.0, 3.0, 64, "32267daa593c6698ebb882b26ad0d11d1b69375759eb24861614d6536558a7aa"),
    (1.0, 20.0, 4, "d17e1490b3f887c3d554c047962af07754d6bec5aad1600c3a6926b8cd882a74"),
    (1.0, 20.0, 64, "0d2304a64590ae91351db1e7416f0f4e50a57415b71d2a81dc6e51d1cd5f1da1"),
    # dt * eta near 1 makes Newton overshoot, so these enter backtracking
    (3.9, 1.0, 4, "1e61a66a4fb18b924c27818e16027f52dfde6604cf8f9e98b31822d0d0f2ee75"),
    (3.9, 3.0, 4, "1b1e3ea4dcc4f6d9145ff0fb360cce905afe05fa8838a67300dbaadf1dcd8fbf"),
    (60.0, 1.0, 64, "4569e0172850512e0188aec1954d3042e663fe0c32d58a8468abc60f16904bce"),
]
_KERNEL_IDS = [f"{eta}-{x0}-{N}" for eta, x0, N, _ in _KERNEL_PINS]

#: sha256 of the values of the 16-path _cubic_d2 batch (N = 64, seed 5, start
#: (2, -1)), the d = 2 Newton branch, recorded before the Newton iteration
#: stopped allocating its damping factors and masked copies on every trial
_CUBIC_D2_PIN = "38c6fb68fdc0e11bc0d139d86d8f6d2e5acbd490073eaa7de9965ec90aaa178d"


@pytest.mark.parametrize("eta, x0, N, digest", _KERNEL_PINS, ids=_KERNEL_IDS)
def test_implicit_kernel_bytes_are_pinned(eta, x0, N, digest):
    out = _gl_implicit(eta, x0, N)
    assert not out.diverged.any()
    assert hashlib.sha256(out.values.tobytes()).hexdigest() == digest


def _cubic_d2():
    """b(x) = -|x|^2 x + (x1, -x0): a d = 2 monotone drift, so Newton takes
    the np.linalg.solve branch."""
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def grad_drift(t, h, x):
        sq = np.sum(x * x, axis=1)[:, None, None]
        return rot - sq * np.eye(2) - 2.0 * x[:, :, None] * x[:, None, :]

    return CoefficientField(
        2, 2,
        lambda t, h, x: x @ rot.T - np.sum(x * x, axis=1, keepdims=True) * x,
        lambda t, h, x: np.broadcast_to(0.5 * np.eye(2), (x.shape[0], 2, 2)),
        grad_drift,
        lambda t, h, x: np.zeros((x.shape[0], 2, 2, 2)),
    )


def _cubic_d2_implicit(field=None):
    g = make_grid(1.0, 64)
    inc = sample_increments(g, 2, seed=5, start=0, count=16)
    return simulate_batch(field or _cubic_d2(), g, inc, np.array([2.0, -1.0]),
                          SchemeChoice(IMPLICIT))


def test_implicit_d2_kernel_bytes_are_pinned():
    out = _cubic_d2_implicit()
    assert not out.diverged.any()
    assert hashlib.sha256(out.values.tobytes()).hexdigest() == _CUBIC_D2_PIN


def _linear_d2(c):
    """b(x) = c x on d = m = 2 with sigma = I/2 and no declared monotone
    constant: at dt = 1/c the Newton matrix I - dt grad b is exactly 0."""
    return CoefficientField(
        2, 2,
        lambda t, h, x: c * x,
        lambda t, h, x: np.broadcast_to(0.5 * np.eye(2), (x.shape[0], 2, 2)),
        lambda t, h, x: np.broadcast_to(c * np.eye(2), (x.shape[0], 2, 2)),
        lambda t, h, x: np.zeros((x.shape[0], 2, 2, 2)),
    )


def test_singular_newton_matrix_tags_every_path_diverged():
    # every path's Newton matrix is singular, so each takes a NaN step and is
    # tagged at step 1, not raised out of np.linalg.solve
    field, g = _linear_d2(4.0), make_grid(1.0, 4)
    inc = sample_increments(g, 2, seed=5, start=0, count=8)
    out = simulate_batch(field, g, inc, np.array([2.0, -1.0]), SchemeChoice(IMPLICIT))
    assert out.diverged.all()
    assert (out.first_bad == 1).all()
    spec = ModelSpec("linear_d2", field, {}, np.array([2.0, -1.0]))
    with pytest.raises(DivergenceError) as exc:
        simulate(spec, sample_noise(g, 2, seed=5), SchemeChoice(IMPLICIT))
    assert exc.value.step == 1


@pytest.mark.parametrize("kw", [{"eps": 1e-3}, {"weights": (constant_weight(),)}],
                         ids=["fd", "bel"])
def test_singular_newton_matrix_in_greeks_raises_the_divergence(kw):
    # every path diverges at step 1 on a singular Newton matrix; BEL's
    # variational pass meets the same matrix on those rows and leaves them to
    # the divergence mask instead of raising out of the solve
    spec = ModelSpec("linear_d2", _linear_d2(4.0), {}, np.array([2.0, -1.0]))
    with pytest.raises(DivergenceError) as exc:
        gradients(spec, make_grid(1.0, 4), SchemeChoice(IMPLICIT), tanh_payoff(), 8, 1, **kw)
    assert str(exc.value) == "state diverged at step 1 (path 0)"


def test_singular_newton_matrix_on_path_0_leaves_the_other_paths():
    # only path 0's Newton matrix is singular: it alone diverges, and the
    # other paths keep the bytes of the clean run
    f, g = _cubic_d2(), make_grid(1.0, 64)

    def grad_drift(t, hist, x):
        jac = f.grad_drift(t, hist, x)
        jac[hist.rows == 0] = np.eye(2) / g.dt  # I - dt jac = 0 on path 0
        return jac

    singular = replace(f, grad_drift=grad_drift)
    inc = sample_increments(g, 2, seed=5, start=0, count=16)
    out = _assert_batch_is_stack(singular, [singular] + [f] * 15, g, np.array([2.0, -1.0]), inc)
    assert out.diverged[0].tolist() == [True] + [False] * 15
    assert out.first_bad[0, 0] == 1
    assert out.values[0, 1:].tobytes() == _cubic_d2_implicit().values[0, 1:].tobytes()


def _nan_on_path_0(field):
    def drift(t, hist, x):
        b = field.drift(t, hist, x)
        b[hist.rows == 0] = np.nan
        return b

    return replace(field, drift=drift)


def _assert_batch_is_stack(batch_field, path_fields, g, theta, inc):
    """simulate_batch over inc equals, bit for bit, path k run alone under
    path_fields[k]; returns the batch."""
    scheme = SchemeChoice(IMPLICIT)
    batch = simulate_batch(batch_field, g, inc, theta, scheme)
    alone = [simulate_batch(f, g, inc[k:k + 1], theta, scheme) for k, f in enumerate(path_fields)]
    for name in ("values", "diverged", "first_bad"):
        stack = np.concatenate([getattr(out, name) for out in alone])
        assert getattr(batch, name).tobytes() == stack.tobytes()
    return batch


@pytest.mark.parametrize("eta, x0, N", [pin[:3] for pin in _KERNEL_PINS], ids=_KERNEL_IDS)
def test_implicit_batch_equals_its_single_path_stack(eta, x0, N):
    # each path stops Newton at its own first iterate within tol, so no path
    # depends on its batch mates
    spec = zoo_lookup("ginzburg_landau", {"eta": eta, "x0": x0})
    g = make_grid(1.0, N)
    inc = sample_increments(g, 1, seed=5, start=0, count=16)
    _assert_batch_is_stack(spec.field, [spec.field] * 16, g, spec.theta0, inc)


def test_implicit_batch_with_a_nan_path_equals_its_single_path_stack():
    f = zoo_lookup("ginzburg_landau", {"x0": 10.0}).field
    g = make_grid(1.0, 4)
    inc = sample_increments(g, 1, seed=5, start=0, count=8)
    out = _assert_batch_is_stack(_nan_on_path_0(f), [_nan_on_path_0(f)] + [f] * 7,
                                 g, np.array([10.0]), inc)
    assert out.diverged[0].tolist() == [True] + [False] * 7


def test_implicit_d2_batch_equals_its_single_path_stack():
    g = make_grid(1.0, 32)
    inc = sample_increments(g, 2, seed=5, start=0, count=16)
    out = _assert_batch_is_stack(_cubic_d2(), [_cubic_d2()] * 16, g, np.array([2.0, -1.0]), inc)
    assert not out.diverged.any()


def _reads_its_rows_brownian(diverged):
    """b(t, x) = x - x^3 + W(t) / 2 per row, reading the row's W(t) from
    hist.brownian, with NaN on path 0 when diverged; d = m = 1."""
    def drift(t, hist, x):
        b = x - x * x * x + 0.5 * hist.brownian[:, hist.idx(t)]
        if diverged:
            b[hist.rows == 0] = np.nan
        return b

    return CoefficientField(
        1, 1, drift,
        lambda t, h, x: np.full((len(x), 1, 1), 0.5),
        lambda t, h, x: (1.0 - 3.0 * x * x)[:, :, None],
        lambda t, h, x: np.zeros((len(x), 1, 1, 1)),
    )


@pytest.mark.parametrize("diverged", [False, True], ids=["clean", "path_0_diverged"])
def test_implicit_batch_reading_its_rows_noise_equals_its_single_path_stack(diverged):
    # Newton hands the drift a subset of the rows, once they are fewer than
    # 1/8 active and once path 0 diverged; each call must read the noise of
    # the rows it is given, as the path run alone reads its own
    f, g = _reads_its_rows_brownian(diverged), make_grid(1.0, 32)
    sizes = set()

    def drift(t, hist, x):
        assert len(hist.rows) == len(x) == len(hist.brownian)
        sizes.add(len(x))
        return f.drift(t, hist, x)

    inc = sample_increments(g, 1, seed=5, start=0, count=64)
    alone = [f] + [_reads_its_rows_brownian(False)] * 63
    out = _assert_batch_is_stack(replace(f, drift=drift), alone, g, np.array([1.0]), inc)
    assert out.diverged[0].tolist() == [diverged] + [False] * 63
    assert min(sizes) < 64 / 8  # the gathered rows were called alone
    assert (63 in sizes) == diverged  # the live rows were, once path 0 diverged


def test_newton_calls_only_the_rows_that_need_it():
    # GL, 1024 paths: once fewer than 1/8 of its rows are active Newton calls
    # those alone, and once path 0 has diverged no Newton call holds it
    f = _nan_on_path_0(zoo_lookup("ginzburg_landau").field)
    calls = []

    def record(fn):
        def wrapped(t, hist, x):
            calls.append((int(round(t * 64)) - 1, hist.rows.copy()))
            return fn(t, hist, x)

        return wrapped

    counting = replace(f, drift=record(f.drift), grad_drift=record(f.grad_drift))
    out = _gl_implicit(1.0, 1.0, 64, count=1024, field=counting)
    assert out.first_bad[0].tolist() == [1] + [65] * 1023
    for step, rows in calls:
        # every live row, or a gathered few
        assert len(rows) == 1024 - (step > 0) or len(rows) < 1024 / 8
        assert step == 0 or 0 not in rows
    assert {step for step, _ in calls} == set(range(64))
    assert sum(len(rows) < 1024 / 8 for _, rows in calls) >= 64


def _counted(fn, counts, dt):
    """fn with its calls counted per implicit step in counts."""

    def wrapped(t, hist, x):
        step = int(round(t / dt)) - 1  # Newton evaluates at t_{i+1}
        counts[step] = counts.get(step, 0) + 1
        return fn(t, hist, x)

    return wrapped


@pytest.mark.parametrize(
    "eta, x0, per_step",
    [
        # (Newton iterations, backtracking halvings) per step, recorded
        # before the residual reuse
        (3.9, 1.0, [(5, 1), (5, 1), (6, 1), (5, 1)]),
        (1.0, 3.0, [(5, 0), (6, 0), (6, 0), (5, 0)]),
    ],
)
def test_newton_drift_calls_per_step(eta, x0, per_step):
    # one drift call for the start residual and one per line-search trial;
    # the accepted trial's residual is reused
    f = zoo_lookup("ginzburg_landau", {"eta": eta, "x0": x0}).field
    drift, grad_drift = {}, {}
    counting = replace(
        f,
        drift=_counted(f.drift, drift, 0.25),
        grad_drift=_counted(f.grad_drift, grad_drift, 0.25),
    )
    _gl_implicit(eta, x0, 4, field=counting)
    for i, (iters, halvings) in enumerate(per_step):
        assert drift[i] == 1 + iters + halvings
        assert grad_drift[i] == iters


def test_newton_exhausted_line_search_keeps_last_halving():
    # a gradient of 2/dt turns every Newton direction uphill, so all 30
    # halvings run out; the residual was recorded before the residual reuse
    uphill = replace(
        zoo_lookup("ginzburg_landau", {"x0": 1.0}).field,
        grad_drift=lambda t, h, x: np.full((x.shape[0], 1, 1), 2.0 / 0.25),
    )
    with pytest.raises(NewtonFailureError) as exc:
        _gl_implicit(1.0, 1.0, 4, count=4, field=uphill,
                     scheme=SchemeChoice(IMPLICIT, newton_max_iter=3))
    assert exc.value.step == 1
    assert exc.value.residual == 0.8346479547509976


def test_newton_failure_not_hidden_by_nan_path():
    spec = zoo_lookup("ginzburg_landau", {"x0": 10.0})
    one_iter = SchemeChoice(IMPLICIT, newton_max_iter=1)
    for field in (spec.field, _nan_on_path_0(spec.field)):
        with pytest.raises(NewtonFailureError, match="residual 7.135e"):
            _gl_implicit(1.0, 10.0, 4, count=8, field=field, scheme=one_iter)


def test_nan_path_is_tagged_while_the_rest_converge():
    spec = zoo_lookup("ginzburg_landau", {"x0": 10.0})
    out = _gl_implicit(1.0, 10.0, 4, count=8, field=_nan_on_path_0(spec.field))
    clean = _gl_implicit(1.0, 10.0, 4, count=8)
    assert out.diverged[0].tolist() == [True] + [False] * 7
    assert out.first_bad[0, 0] == 1
    assert out.values[0, 1:].tobytes() == clean.values[0, 1:].tobytes()


def test_nan_path_does_not_keep_newton_iterating():
    # path 0's iterate turns NaN in the first Newton iteration; the batch must
    # then stop once the finite paths converge, not run to newton_max_iter
    f = zoo_lookup("ginzburg_landau", {"x0": 10.0}).field
    counts = []
    for field in (f, _nan_on_path_0(f)):
        per_step = {}
        counted = replace(field, grad_drift=_counted(field.grad_drift, per_step, 1 / 64))
        _gl_implicit(1.0, 10.0, 64, count=8, field=counted)
        counts.append(per_step)
    clean, nan = counts
    assert sorted(nan) == list(range(64))
    assert all(nan[i] <= clean[i] for i in range(64))


def _single_path_calls(spec, w, scheme=SchemeChoice(EULER)):
    h = CameronMartinPath.constant(w.grid, 1.0, spec.m)
    return {
        "finite_difference_jacobian": lambda: finite_difference_jacobian(spec, w, scheme, 1e-4),
        "simulate": lambda: simulate(spec, w, scheme),
        "jacobian": lambda: jacobian(spec, w, scheme),
        "gateaux_direction": lambda: gateaux_direction(spec, w, scheme, np.ones(spec.d)),
        "malliavin_field": lambda: malliavin_field(spec, w, scheme, s_stride=8),
        "directional_derivative": lambda: directional_derivative(spec, w, scheme, h),
    }


_SINGLE_PATH = (
    "simulate", "jacobian", "gateaux_direction", "malliavin_field", "directional_derivative",
    "finite_difference_jacobian",
)


@pytest.mark.parametrize("fn", _SINGLE_PATH)
def test_single_path_noise_of_another_dimension_is_rejected(fn):
    # two noise columns for the m = 1 gbm would be broadcast by einsum
    spec = zoo_lookup("gbm")
    g = make_grid(1.0, 64)
    w = sample_noise(g, 2, seed=1)
    with pytest.raises(InvalidParameterError, match="noise dimension"):
        _single_path_calls(spec, w)[fn]()


def test_kernel_rejects_noise_off_its_grid():
    # increments for N = 16 on a grid of N = 8 would step 16 times with
    # dt = 1/8; two noise columns for the m = 1 ou would not reshape
    spec = zoo_lookup("ou")
    g = make_grid(1.0, 8)
    inc = sample_increments(make_grid(1.0, 16), 1, seed=2, start=0, count=4)
    with pytest.raises(InvalidParameterError, match="^increments have 16 steps, the grid 8$"):
        simulate_batch(spec.field, g, inc, spec.theta0, SchemeChoice(EULER))
    inc = sample_increments(g, 2, seed=2, start=0, count=4)
    with pytest.raises(InvalidParameterError, match="^noise dimension does not match the model$"):
        simulate_batch(spec.field, g, inc, spec.theta0, SchemeChoice(EULER))


@pytest.mark.parametrize("shape", [(8, 1), (2, 4, 8, 1), ()], ids=["one_path", "4d", "scalar"])
def test_kernel_rejects_increments_of_another_rank(shape):
    # one path's (N, m) increments would not unpack into (P, N, m)
    spec = zoo_lookup("ou")
    with pytest.raises(
        InvalidParameterError,
        match=rf"^increments must have shape \(P, 8, 1\), got {re.escape(str(shape))}$",
    ):
        simulate_batch(spec.field, make_grid(1.0, 8), np.zeros(shape), spec.theta0,
                       SchemeChoice(EULER))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "fn", ("malliavin_field", "directional_derivative", "gateaux_direction")
)
def test_single_path_derivative_reports_its_first_bad_node(fn):
    # grad_drift is inf at t_5 only, so the derivative is first non-finite
    # at node 6, and the recursion must not warn on its way there
    spec = zoo_lookup("ou")
    g = make_grid(1.0, 16)
    f = spec.field

    def grad_drift(t, hist, x):
        out = np.array(f.grad_drift(t, hist, x), dtype=float)
        if round(t / g.dt) == 5:
            out[...] = np.inf
        return out

    bad = replace(spec, field=replace(f, grad_drift=grad_drift))
    with pytest.raises(DivergenceError) as exc:
        _single_path_calls(bad, sample_noise(g, 1, seed=3))[fn]()
    assert exc.value.step == 6
    # the message names the derivative that blew up, not the state
    what = {
        "malliavin_field": "Malliavin field D_s X",
        "directional_derivative": "directional derivative D^h X",
        "gateaux_direction": "Gateaux direction F[h]",
    }[fn]
    assert str(exc.value) == f"{what} diverged at step 6"


@pytest.mark.parametrize("fn", _SINGLE_PATH)
def test_single_path_divergence_names_the_noise_path(fn):
    # GL from x0 = 50 diverges at step 5 on path 3 of the seed under Euler
    spec = zoo_lookup("ginzburg_landau", {"x0": 50.0})
    w = sample_noise(make_grid(2.0, 8), 1, seed=0, path_index=3)
    assert w.path_index == 3
    with pytest.raises(DivergenceError) as exc:
        _single_path_calls(spec, w)[fn]()
    assert (exc.value.step, exc.value.path_index) == (5, 3)


@pytest.mark.parametrize("fn", _SINGLE_PATH)
def test_single_path_newton_failure_names_the_noise_path(fn):
    # one Newton iteration leaves GL's step-1 residual above the tolerance
    spec = zoo_lookup("ginzburg_landau")
    w = sample_noise(make_grid(1.0, 16), 1, seed=1, path_index=5)
    with pytest.raises(NewtonFailureError) as exc:
        _single_path_calls(spec, w, SchemeChoice(IMPLICIT, newton_max_iter=1))[fn]()
    # the bumped starts of the central difference leave 6.066e-05
    assert str(exc.value) in [
        f"Newton residual {r} > tol 1.000e-10 at step 1 (path 5)" for r in ("6.065e-05", "6.066e-05")
    ]


#: name -> (spec, T, N) of the stacked-variant checks
STACK_CASES = {
    "gl_x0_1": (lambda: zoo_lookup("ginzburg_landau"), 1.0, 16),
    # explicit Euler from x0 = 3 with dt = 1/4 diverges on some rows
    "gl_x0_3": (lambda: zoo_lookup("ginzburg_landau", {"x0": 3.0}), 2.0, 8),
    "quintic": (lambda: zoo_lookup("quintic"), 1.0, 16),
    "twin_gl": (
        lambda: ModelSpec("twin_gl", _twin_ginzburg_landau(1.0), {}, np.full(2, 3.0)),
        2.0, 8,
    ),
    # sigma reads the history: its rows must be the stacked rows
    "random_sigma": (lambda: zoo_lookup("random_sigma_example"), 1.0, 16),
}


def _cubic_d2_m3():
    """b(x) = -x - x^3 per component with sigma_ij(x) = c_ij (1 + x_i / 4)
    on d = 2, m = 3: each sigma dW sums three terms."""
    c = np.array([[0.3, -0.7, 1.1], [0.9, 0.2, -0.4]])

    def grad_diffusion(t, h, x):
        g = np.zeros((x.shape[0], 2, 3, 2))
        for i in range(2):
            g[:, i, :, i] = c[i] / 4.0
        return g

    return CoefficientField(
        2, 3,
        lambda t, h, x: -x - x * x * x,
        lambda t, h, x: c * (1.0 + x[:, :, None] / 4.0),
        lambda t, h, x: _diag(-1.0 - 3.0 * x * x),
        grad_diffusion,
    )


#: the stacked-variant cases, and a field whose noise term sums m = 3 terms
NOISE_CASES = {
    **STACK_CASES,
    "cubic_d2_m3": (
        lambda: ModelSpec("cubic_d2_m3", _cubic_d2_m3(), {}, np.array([0.5, -1.0])), 1.0, 16,
    ),
}


@pytest.mark.parametrize("kind", SCHEMES)
@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_stacked_variants_equal_separate_runs(case, kind):
    # three variants of 64 paths on one noise, one of them with a start per
    # row: each variant's rows are its own run, bit for bit
    make_spec, T, N = NOISE_CASES[case]
    spec = make_spec()
    g = make_grid(T, N)
    scheme = SchemeChoice(kind)
    inc = sample_increments(g, spec.m, 21, 0, 64)
    starts = [
        np.broadcast_to(spec.theta0 + 1e-3, (64, spec.d)),
        np.broadcast_to(spec.theta0, (64, spec.d)),
        spec.theta0 + np.linspace(-0.5, 0.5, 64)[:, None],
    ]
    stacked = simulate_batch(spec.field, g, inc, np.stack(starts), scheme)
    assert stacked.hist.B == 3 * 64
    for k, theta in enumerate(starts):
        alone = simulate_batch(spec.field, g, inc, theta, scheme)
        for name in ("values", "diverged", "first_bad"):
            part = getattr(stacked, name)[k]
            assert part.tobytes() == getattr(alone, name).tobytes()
    if kind == EULER and case in ("gl_x0_3", "twin_gl"):
        assert stacked.diverged.any()


def test_theta_must_broadcast_to_the_variants_and_paths():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 4)
    inc = sample_increments(g, 1, 1, 0, 4)
    with pytest.raises(InvalidParameterError, match=r"\(6, 1\) does not broadcast to \(1, 4, 1\)"):
        simulate_batch(spec.field, g, inc, np.ones((6, 1)), SchemeChoice(EULER))


@pytest.mark.parametrize("theta", [1e200, -2e150, np.inf, np.nan])
def test_theta_beyond_the_divergence_bound_is_rejected(theta):
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 4)
    inc = sample_increments(g, 1, 1, 0, 4)
    with pytest.raises(InvalidParameterError, match="theta must be finite"):
        simulate_batch(spec.field, g, inc, np.array([theta]), SchemeChoice(TAMED))


def _shifts(spec, g, scales):
    """Shifts scale * hdot * dt of the direction hdot(t) = 1 + t per noise
    column, one per scale: the noise-shifted variants of the ladder."""
    hdot = np.broadcast_to((1.0 + g.left_times)[:, None], (g.N, spec.m))
    return np.array([s * (hdot * g.dt) for s in scales])


@pytest.mark.parametrize("kind", SCHEMES)
@pytest.mark.parametrize("case", sorted(NOISE_CASES))
def test_noise_shifted_variants_equal_separate_runs(case, kind):
    # three noise-shifted variants of 64 paths, the zero shift among them:
    # each variant's rows are the run on its shifted noise, bit for bit, and
    # a random-coefficient sigma reads its own row's shifted history
    make_spec, T, N = NOISE_CASES[case]
    spec = make_spec()
    g = make_grid(T, N)
    scheme = SchemeChoice(kind)
    inc = sample_increments(g, spec.m, 21, 0, 64)
    shifts = _shifts(spec, g, [0.0, 0.5, 0.125])
    stacked = simulate_batch(spec.field, g, inc, spec.theta0, scheme, shifts)
    assert stacked.hist.B == 3 * 64
    for k, shift in enumerate(shifts):
        alone = simulate_batch(spec.field, g, inc + shift, spec.theta0, scheme)
        for name in ("values", "diverged", "first_bad"):
            part = getattr(stacked, name)[k]
            assert part.tobytes() == getattr(alone, name).tobytes()
    if kind == EULER and case in ("gl_x0_3", "twin_gl"):
        assert stacked.diverged.any()


def test_shifts_take_one_start_or_one_per_row():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 4)
    inc = sample_increments(g, 1, 1, 0, 4)
    shifts = _shifts(spec, g, [0.0, 1.0])
    with pytest.raises(InvalidParameterError, match=r"\(3, 4, 1\) does not broadcast to \(2, "):
        simulate_batch(spec.field, g, inc, np.ones((3, 4, 1)), SchemeChoice(EULER), shifts)
    with pytest.raises(InvalidParameterError, match="shifts must have shape"):
        simulate_batch(spec.field, g, inc, spec.theta0, SchemeChoice(EULER), shifts[:, :3])
    rows = simulate_batch(spec.field, g, inc, np.ones((2, 4, 1)), SchemeChoice(EULER), shifts)
    one = simulate_batch(spec.field, g, inc, np.ones(1), SchemeChoice(EULER), shifts)
    assert rows.values.tobytes() == one.values.tobytes()


@pytest.mark.parametrize("kind", SCHEMES)
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stability_ratio_equals_its_separate_runs(case, kind):
    # theta and xi stepped as one stacked batch give the estimate (or the
    # earliest divergence) of two separate stored runs, and theta with three
    # xi rows give, row by row, the bytes of three single-xi runs
    make_spec, T, N = STACK_CASES[case]
    spec = make_spec()
    g = make_grid(T, N)
    scheme = SchemeChoice(kind)
    theta, xi = spec.theta0, spec.theta0 + 0.25
    rows = spec.theta0 + np.array([[0.25], [-0.5], [1e-3]])
    inc = sample_increments(g, spec.m, 21, 0, 300)
    a = simulate_batch(spec.field, g, inc, theta, scheme)
    b = simulate_batch(spec.field, g, inc, xi, scheme)
    first_bad = np.minimum(a.first_bad[0], b.first_bad[0])
    rows_bad = np.min([first_bad] + [
        simulate_batch(spec.field, g, inc, v, scheme).first_bad[0] for v in rows[1:]
    ], axis=0)
    if np.any(rows_bad <= N):
        with pytest.raises(DivergenceError) as exc:
            stability_ratio(spec, g, scheme, theta, rows, 2.0, 300, 21)
        assert (exc.value.step, exc.value.path_index) == (
            rows_bad.min(), np.argmin(rows_bad)
        )
    else:
        got = stability_ratio(spec, g, scheme, theta, rows, 2.0, 300, 21)
        assert len(got) == len(rows)
        for r, v in zip(got, rows):
            (alone,) = stability_ratio(spec, g, scheme, theta, v, 2.0, 300, 21)
            assert r.mean.tobytes() == alone.mean.tobytes()
            assert r.stderr.tobytes() == alone.stderr.tobytes()
    if np.any(first_bad <= N):
        with pytest.raises(DivergenceError) as exc:
            stability_ratio(spec, g, scheme, theta, xi, 2.0, 300, 21)
        assert (exc.value.step, exc.value.path_index) == (
            first_bad.min(), np.argmin(first_bad)
        )
        return
    gap = float(np.linalg.norm(xi - theta))
    want = mc_estimate(np.max(np.linalg.norm(b.values[0] - a.values[0], axis=2), axis=1) ** 2.0
                       / gap**2.0)
    (got,) = stability_ratio(spec, g, scheme, theta, xi, 2.0, 300, 21)
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.stderr.tobytes() == want.stderr.tobytes()


def _d2_variational_outputs(case, kind):
    """The d > 1 outputs of every variational pass under the scheme kind, by
    name: J, K and D of `jacobian`, the Malliavin field, F[h], D^h X and the
    per-path BEL (m = d only) and FD samples of a 16-path greeks chunk."""
    field, theta = {
        "cubic_d2": (_cubic_d2(), np.array([2.0, -1.0])),
        "cubic_d2_m3": (_cubic_d2_m3(), np.array([0.5, -1.0])),
    }[case]
    spec = ModelSpec(case, field, {}, theta)
    g = make_grid(1.0, 64)
    scheme = SchemeChoice(kind)
    w = sample_noise(g, spec.m, seed=9)
    bun = jacobian(spec, w, scheme)
    hdot = np.cos(np.arange(g.N)[:, None] * 0.1 + np.arange(spec.m))
    outputs = {
        "J": bun.J, "K": bun.K, "D": bun.D,
        "field": malliavin_field(spec, w, scheme, s_stride=4).entries,
        "gateaux": gateaux_direction(spec, w, scheme, np.array([1.0, -0.5])).values,
        "directional": directional_derivative(
            spec, w, scheme, CameronMartinPath(g, spec.m, hdot)).values,
    }
    inc = sample_increments(g, spec.m, 9, 0, 16)
    a = _weight_table([constant_weight(), lambda s, t: s + 0.5], g) if spec.m == spec.d else None
    samples = _samples(field, g, scheme, theta, tanh_payoff(), inc, a, 1e-3)
    if a is not None:
        outputs["bel"], samples = samples[0], samples[2:]
    outputs["fd"] = samples[0]
    return outputs


#: sha256 of each _d2_variational_outputs array, per (case, scheme).  Where
#: smallmat.contract sums in another order than the np.einsum or matmul it
#: replaced, the digest moved in the last bits (CHANGES.md lists each move):
#: matmul on 2 x 2 stacks (J, K, the field and BEL on cubic_d2), einsum's
#: (p0 + p2) + p1 for the m = 3 noise sum sigma dW (every cubic_d2_m3 output)
#: and log D's tr A, now summed as tr(Dmat + S) instead of tr Dmat + tr S
_D2_VARIATIONAL_PINS = {
    ("cubic_d2", EULER): {
        "J": "0e510b5e7551d5b8530aa980f4e965f410e9ec6dde16e67a60fe5fbe288e7eb5",
        "K": "eb8f371649587bb18bd59c07fe05afec29ba5ee031c07527183443e2f3966034",
        "D": "5506215ce43d7c5f02416154d81ed802c6f7ebaedcefc8c657b1e745745f7cb9",
        "field": "4940c307eb424c5b68f8225df56d2116abbcb7c85965526592800a3fa6e8ac42",
        "gateaux": "495fe2e45b81d5bc4850a4615671c4279a4e008f1e256fadd06df6a5c65773ec",
        "directional": "fc18389fca9872339c05ba86b82b4f734baaca4df3839b784ee22c2e69eba5c5",
        "bel": "65b61b27ab24707575f483f7c8cdb342946e6409920b8830659c57ffb90459e8",
        "fd": "fea548b958a2f86c9382360274e4916138fbd9e82cf68febeacfffee6ef5892c",
    },
    ("cubic_d2", TAMED): {
        "J": "70df416ecc80d2dbd6db6b89db6b2908987c7f221235249d7a078aa525a82537",
        "K": "d8feb07e71f63cdef15291ff09508310505d49600159db329318f5c25ab82c2d",
        "D": "dee14ce848efd9a2b11a25fbbb027ec6b33f016ea5a6ec97a104e56827314d8b",
        "field": "f1ff949da2080771e56f5bea8dfb00f0d7bdb7a4e2a1c13130a6b4574ab7bae0",
        "gateaux": "60a3f9d028f6ebba63757855f08f6c8c6380d909ffa1d71b6aace1b26426ec37",
        "directional": "6e8d24d820cad85c5eb9090434689fbe95141c935487d5cf1fc2c8567abdd8bb",
        "bel": "a59904de653e82da4595cc9cf94d4ba79be3483cee2eb497338366cb3a1bce93",
        "fd": "ebb1f6d6bc18b461bb59f910666ec72dbde4127d5b6bea35d8fe0eaf6fa7b325",
    },
    ("cubic_d2", IMPLICIT): {
        "J": "5d60846b0cd01f9ed5adab0518c366e8a4f322839e78bb4fb7ba90d31f43f219",
        "K": "78c3fcbea903715dea1dfe1cc5d6d64d660b83e383685b6dbdfbc6bcd222aeff",
        "D": "6d8b0005d6cfb43f658082486a263ec093ed8b5ea4bb1381bed71db87adfde73",
        "field": "e7978d138cd30e8c67e579e021cc770d036f12d20cabc0f1dd977e47593815b2",
        "gateaux": "818abbe5da988146fd3e579fd37d02538e50c732c85740185ab9e72078cd52b8",
        "directional": "ddc328524ebdcd07e7cc93e167894d5f72ba86cf633175743015cbe5a2340ce6",
        "bel": "c1608a9ec6e3c9e650746073ae056cad8cca2235a66e0e749bb50f46e1c69cae",
        "fd": "63269222ee7bec7f162936ee7e659b60f6a895520e5a298db1728374f85b9a4e",
    },
    ("cubic_d2_m3", EULER): {
        "J": "1a7d6810f849f8576a6f4bb059b4948020458c87d148bc55a86de3d7e06dc584",
        "K": "d82d75b2c9a68d043cd861805147aeb6fad0dad23a7e2c235643f4e50d7276c1",
        "D": "927f92e63d429bb3c075300ee51ab811bb6315dd7956fa2850cb3bb147ae43d6",
        "field": "3037ca0ac60d79a45b5d64f6f779c803545378b7fd83919dd073a3a41eeb0043",
        "gateaux": "ddc2e93375f65b52fb5fc16c239c88303b158baf2d8f4de8633adaddbc75dbed",
        "directional": "8b3d4c6f0bc97ad63c9dc131ae083b26f5a1200a2e9c3e43f7047556d7359014",
        "fd": "f649020abfa33c1113ba9cf63a50b94de4c4544a28742c32e2488f1d7eddda5c",
    },
    ("cubic_d2_m3", TAMED): {
        "J": "90b04c339e034ffe6cc5e8463d248efd65fe624fa0c5ca811ce070074c8f7f74",
        "K": "a48005f758c2f0f0cf15a1a79dd64c1d66aca985c8afbd882e5f908ac1eb0892",
        "D": "17f3900b1138619bae2ead38f5aff1b14ce09098e1e8655df84a2a0578663b67",
        "field": "35b9525cf3d07a850a4ad5cb1353abbd23ee454c39ae5477b82867ca6d63e8fe",
        "gateaux": "9d544eddd45cbd1c7bbafc16c96a973a087e445d05d41f0eb1c15d113fb60a3a",
        "directional": "bcd24a482d70cdcf63ab1399424d11774050610a9ca0bb3fff06aada3a34073c",
        "fd": "4b267b40d89b550192147cfd9ac6b3c87e818d1964d85cab1363a8af28f4c310",
    },
    ("cubic_d2_m3", IMPLICIT): {
        "J": "566ff0d58649a69fa5ca15bbd243484e4e059032b6df8a171ca5a899e66240b5",
        "K": "196a2fcef3acfdef0024987d96bd493f6bad8f213394830d2165f499a4530599",
        "D": "0cec36e8b764a86a55a31929df0ae7b218adeb0c749034dc12deb2fb987f23e6",
        "field": "6a7803d2d173ba3e359818969f622f0db82406d6f0d6e2fdca14d10f55ef3c63",
        "gateaux": "df45d8879ed828236f72d2adff2922d650b118e01239fe17d78c22a9816e4a34",
        "directional": "5f71de9b53606993cda29ee40e785bead471c45191fd54b8d71699cdc82932e9",
        "fd": "3befee6859b75e0d4ab00dfa91677b0e107381ca67e0a8a0bdf8210d5def10b8",
    },
}


@pytest.mark.parametrize("kind", SCHEMES)
@pytest.mark.parametrize("case", ["cubic_d2", "cubic_d2_m3"])
def test_d2_variational_bytes_are_pinned(case, kind):
    got = {
        name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for name, a in _d2_variational_outputs(case, kind).items()
    }
    assert got == _D2_VARIATIONAL_PINS[case, kind]
