import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monosde import (
    CameronMartinPath,
    DivergenceError,
    InvalidParameterError,
    NewtonFailureError,
    LinearSDECoeffs,
    directional_derivative,
    eval_closed_form,
    estimate_sup_moment,
    finite_difference_jacobian,
    gateaux_direction,
    jacobian,
    linear_sde_solve,
    make_grid,
    malliavin_field,
    pareto_theta_sampler,
    sample_noise,
    simulate,
    stability_ratio,
    zoo_lookup,
)
from monosde.core import CHUNK, sample_increments
from monosde.greeks import BELConfig, _bel_samples, identity_payoff
from monosde.models import CoefficientField
from monosde.solver import (
    EULER,
    IMPLICIT,
    TAMED,
    SchemeChoice,
    run_paths,
    simulate_batch,
)


ALL_SCHEMES = [SchemeChoice(EULER), SchemeChoice(TAMED), SchemeChoice(IMPLICIT)]


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_constant_path(scheme):
    spec = zoo_lookup("gbm", {"mu": 0.0, "sigma": 0.0, "x0": 3.0})
    g = make_grid(1.0, 16)
    w = sample_noise(g, 1, seed=1)
    x = simulate(spec, g, w, scheme=scheme)
    assert np.all(x.values == 3.0)


def test_simulate_is_deterministic():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=2)
    a = simulate(spec, g, w, scheme=SchemeChoice(TAMED))
    b = simulate(spec, g, w, scheme=SchemeChoice(TAMED))
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
        errs.append(np.mean(np.abs(out.values[:, -1, 0] - closed)))
        dts.append(g.dt)
    order = np.polyfit(np.log2(dts), np.log2(errs), 1)[0]
    assert 0.4 <= order <= 0.6


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
    # figures were recorded before the kernel's bookkeeping was rewritten.
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0, "x0": 10.0})
    g = make_grid(2.0, 64)
    inc = sample_increments(g, 1, seed=4, start=0, count=6)
    theta = np.array([[10.0], [1.0], [8.0], [10.0], [9.0], [8.5]])
    out = simulate_batch(spec.field, g, inc, theta, SchemeChoice(EULER))
    assert out.diverged.tolist() == [True, False, False, True, True, True]
    assert out.first_bad.tolist() == [7, 65, 65, 7, 7, 7]
    frozen = {
        0: 4.040528731136235e132,
        3: 4.72830046995121e136,
        4: 8.104052600291134e74,
        5: 3.915725302670769e59,
    }
    for b, value in frozen.items():
        assert np.all(out.values[b, 6:, 0] == value)
        assert out.values[b, 5, 0] != value
    assert out.values[1, -1, 0] == 0.6769377719352049
    assert out.values[2, -1, 0] == 0.909961052445855


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
    assert out.diverged.tolist() == [False, True, False, True]
    assert out.first_bad.tolist() == [17, 6, 17, 10]
    assert np.all(np.isfinite(out.values))
    assert np.all(out.values[1, 5:, 0] == frozen[0])
    assert np.all(out.values[3, 9:, 0] == frozen[1])


def test_simulate_raises_divergence_with_step():
    spec = zoo_lookup("ginzburg_landau", {"x0": 10.0})
    g = make_grid(2.0, 64)
    w = sample_noise(g, 1, seed=5)
    with pytest.raises(DivergenceError) as exc:
        simulate(spec, g, w, scheme=SchemeChoice(EULER))
    assert 1 <= exc.value.step <= 64


def test_sup_moment_deterministic_path():
    spec = zoo_lookup("gbm", {"mu": 0.0, "sigma": 0.0, "x0": 2.0})
    g = make_grid(1.0, 16)
    rep = estimate_sup_moment(spec, g, SchemeChoice(EULER), p=3.0, n_paths=64, seed=6)
    assert rep.estimate.mean[0] == pytest.approx(8.0)
    assert rep.estimate.stderr[0] == 0.0
    assert rep.n_diverged == 0
    assert not rep.nonconvergent


def test_sup_moment_stable_under_refinement():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 1.0})
    reps = [
        estimate_sup_moment(
            spec, make_grid(1.0, N), SchemeChoice(EULER), p=2.0, n_paths=4096, seed=7
        )
        for N in (256, 512)
    ]
    diff = abs(reps[0].estimate.mean[0] - reps[1].estimate.mean[0])
    tol = 3.0 * math.hypot(reps[0].estimate.stderr[0], reps[1].estimate.stderr[0])
    assert diff <= tol


def test_sup_moment_heavy_tail_flagged():
    # Pareto(alpha = 1.5) initial conditions: E[ sup^6 ] is infinite
    spec = zoo_lookup("quintic")
    rep = estimate_sup_moment(
        spec,
        make_grid(1.0, 64),
        SchemeChoice(TAMED),
        p=6.0,
        n_paths=8192,
        seed=8,
        theta_sampler=pareto_theta_sampler(1.5),
    )
    assert rep.nonconvergent
    # the (gen, n) sampler draws what a scalar pareto() draw gives, so the
    # estimate equals the one of the earlier (gen) -> (d,) sampler
    draws = [
        np.random.Generator(np.random.Philox(3)).pareto(1.5, **size)
        for size in ({}, {"size": (1, 1)})
    ]
    assert draws[0] == draws[1][0, 0]
    assert rep.estimate.mean[0] == float.fromhex("0x1.b4a82e12b9780p+54")
    assert rep.estimate.stderr[0] == float.fromhex("0x1.b4a41cffd45dbp+54")


@pytest.mark.parametrize("workers", [1, 2])
def test_run_paths_concatenates_each_array_in_path_order(workers):
    g = make_grid(1.0, 4)
    starts = []

    def fn(inc, start):
        starts.append(start)
        idx = start + np.arange(len(inc))
        return idx, inc[:, :, 0], np.stack([idx, -idx], axis=1)

    idx, inc, pairs = run_paths(fn, g, 1, 5, 600, workers, size=256)
    assert sorted(starts) == [0, 256, 512]
    assert np.array_equal(idx, np.arange(600))
    assert np.array_equal(inc, sample_increments(g, 1, 5, 0, 600)[:, :, 0])
    assert np.array_equal(pairs[:, 1], -np.arange(600))
    # a single array is concatenated as well
    single = run_paths(lambda inc, start: inc, g, 2, 5, 300, workers, size=256)
    assert np.array_equal(single, sample_increments(g, 2, 5, 0, 300))


def test_run_paths_rejects_an_empty_run():
    with pytest.raises(InvalidParameterError, match="n_paths"):
        run_paths(lambda inc, start: inc, make_grid(1.0, 4), 1, 5, 0)


@pytest.mark.parametrize("workers", [0, -5])
def test_run_paths_rejects_workers_below_one(workers):
    with pytest.raises(InvalidParameterError, match="workers must be >= 1"):
        run_paths(lambda inc, start: inc, make_grid(1.0, 4), 1, 5, 8, workers)


@settings(max_examples=30, deadline=None, database=None)
@given(
    model=st.sampled_from(["gbm", "ginzburg_landau"]),
    kind=st.sampled_from([EULER, TAMED]),
    x0=st.sampled_from([1.0, 6.0]),
    N=st.integers(1, 16),
    n_paths=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
def test_chunk_size_does_not_change_explicit_results(model, kind, x0, N, n_paths, seed):
    # explicit steps never couple a chunk's paths, so every chunk size gives
    # the bytes of the fixed chunks; x0 = 6 makes Euler GL paths diverge
    spec = zoo_lookup(model, {"x0": x0})
    g = make_grid(1.0, N)
    scheme = SchemeChoice(kind)
    cfg = BELConfig(identity_payoff(), N)
    a = cfg.weights_on(g)

    def fn(inc, start):
        out = simulate_batch(spec.field, g, inc, spec.theta0, scheme)
        return (out.values, out.diverged, out.first_bad,
                *_bel_samples(spec, g, scheme, cfg, a, inc))

    def run(size=CHUNK):
        return [r.tobytes() for r in run_paths(fn, g, 1, seed, n_paths, size=size)]

    fixed = run()
    for k in range(1, n_paths + 1):
        assert run(k) == fixed


def test_stability_ratio_gbm_scale_invariant():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 256)
    ratios = [
        stability_ratio(
            spec, g, SchemeChoice(EULER), np.array([1.0]), np.array([1.0 + gap]),
            p=2.0, n_paths=1024, seed=9,
        ).mean[0]
        for gap in (1e-1, 1e-2, 1e-3)
    ]
    assert max(ratios) / min(ratios) - 1.0 < 1e-10


def test_stability_ratio_deterministic_linear():
    # sigma = 0, b = -x: the ratio is the squared Euler decay factor
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.0})
    g = make_grid(1.0, 512)
    r = stability_ratio(
        spec, g, SchemeChoice(EULER), np.array([1.0]), np.array([1.5]),
        p=2.0, n_paths=16, seed=10,
    )
    assert r.mean[0] == pytest.approx(1.0)  # sup over t includes t = 0
    # and the terminal-decay version against e^{-2T} via the recursion
    assert (1 - g.dt) ** (2 * g.N) == pytest.approx(math.exp(-2.0), abs=5 * g.dt)


def test_stability_ratio_rejects_equal_points():
    spec = zoo_lookup("gbm")
    with pytest.raises(InvalidParameterError):
        stability_ratio(
            spec, make_grid(1.0, 8), SchemeChoice(EULER),
            np.array([1.0]), np.array([1.0]), p=2.0, n_paths=8, seed=0,
        )


def test_scheme_consistency_on_lipschitz_model():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    cs = []
    for N in (256, 512):
        g = make_grid(1.0, N)
        w = sample_noise(g, 1, seed=11)
        paths = [simulate(spec, g, w, scheme=s).values for s in ALL_SCHEMES]
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
    x = simulate(spec, g, w, scheme=SchemeChoice(IMPLICIT))
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
        simulate(spec, g, w, scheme=SchemeChoice(IMPLICIT))


def _gl_implicit(eta, x0, N, count=16, field=None, scheme=None):
    spec = zoo_lookup("ginzburg_landau", {"eta": eta, "x0": x0})
    g = make_grid(1.0, N)
    inc = sample_increments(g, 1, seed=5, start=0, count=count)
    return simulate_batch(
        field or spec.field, g, inc, spec.theta0, scheme or SchemeChoice(IMPLICIT)
    )


@pytest.mark.parametrize(
    "eta, x0, N, digest",
    [
        (1.0, 1.0, 4, "4ab2f5ee999785f0e477d3cc49b958d1e2a53b441cdb97c75b8b4a2f781aec38"),
        (1.0, 1.0, 64, "675d0853e93311c1a1ee7f8e00c2292968bc7ce19d84147224468449ea7b9b3e"),
        (1.0, 3.0, 4, "a8dbd0bccc83095250b6fd34e0669cf86cc163f30157418b9323189f916148f1"),
        (1.0, 3.0, 64, "ab188e10ce61feffb2dba22412388165dbda9dc22b4ddd9bb87bdacdd62ba23e"),
        (1.0, 20.0, 4, "48b2f76158e5d4ab64f629f1c203c29dfd76a5cd1eb02f49409341597852ffc5"),
        (1.0, 20.0, 64, "0e60123d47f0c0c762cc0b3df48180521c35a3e0d2251c0e9401937ed49d6f15"),
        # dt * eta near 1 makes Newton overshoot, so these enter backtracking
        (3.9, 1.0, 4, "b0b291438919bb88d75870c3142f3fd2f15223ed36fc4d9c7131721c8efcdc00"),
        (3.9, 3.0, 4, "4e43d31cb4cbba11adf8b768ec4df6edb4c3dc131cef5b975b586384a3404051"),
        (60.0, 1.0, 64, "0c51ecbfc4bde31b190321894829f5d02abd32521d60122ec7c59aefe9262b6a"),
    ],
)
def test_implicit_kernel_bytes_are_pinned(eta, x0, N, digest):
    # digests recorded before the d = 1 Newton division and residual reuse
    out = _gl_implicit(eta, x0, N)
    assert not out.diverged.any()
    assert hashlib.sha256(out.values.tobytes()).hexdigest() == digest


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


def _nan_on_path_0(field):
    def drift(t, hist, x):
        b = field.drift(t, hist, x)
        b[0] = np.nan
        return b

    return replace(field, drift=drift)


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
    assert out.diverged.tolist() == [True] + [False] * 7
    assert out.first_bad[0] == 1
    # Newton stops once every finite iterate has converged; the batch still
    # iterates until its slowest finite path converges, so in general the
    # converged paths may differ from the clean batch in the last bits
    assert np.max(np.abs(out.values[1:] - clean.values[1:])) < 1e-12


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


def _single_path_calls(spec, grid, w):
    scheme = SchemeChoice(EULER)
    h = CameronMartinPath.constant(grid, 1.0, spec.m)
    d, m = spec.d, spec.m
    ou = LinearSDECoeffs(
        d, m,
        B=lambda t, hist: -np.eye(d),
        Sigma=lambda t, hist: np.zeros((d, m, d)),
        b=lambda t, hist: np.zeros(d),
        sigma=lambda t, hist: np.ones((d, m)),
    )
    return {
        "finite_difference_jacobian": lambda: finite_difference_jacobian(
            spec, grid, w, scheme, 1e-4
        ),
        "linear_sde_solve": lambda: linear_sde_solve(ou, grid, w, spec.theta0),
        "simulate": lambda: simulate(spec, grid, w),
        "jacobian": lambda: jacobian(spec, grid, w, scheme),
        "gateaux_direction": lambda: gateaux_direction(spec, grid, w, scheme, np.ones(spec.d)),
        "malliavin_field": lambda: malliavin_field(spec, grid, w, scheme, s_stride=8),
        "directional_derivative": lambda: directional_derivative(spec, grid, w, scheme, h),
    }


_SINGLE_PATH = (
    "simulate", "jacobian", "gateaux_direction", "malliavin_field", "directional_derivative",
    "finite_difference_jacobian", "linear_sde_solve",
)


@pytest.mark.parametrize("fn", _SINGLE_PATH)
def test_single_path_noise_on_another_grid_is_rejected(fn):
    # same N, four times the horizon: every step would use the wrong dt
    spec = zoo_lookup("ou")
    g = make_grid(1.0, 64)
    w = sample_noise(make_grid(4.0, 64), spec.m, seed=1)
    with pytest.raises(InvalidParameterError, match="different grid"):
        _single_path_calls(spec, g, w)[fn]()


@pytest.mark.parametrize("fn", _SINGLE_PATH)
def test_single_path_noise_of_another_dimension_is_rejected(fn):
    # two noise columns for the m = 1 gbm would be broadcast by einsum
    spec = zoo_lookup("gbm")
    g = make_grid(1.0, 64)
    w = sample_noise(g, 2, seed=1)
    with pytest.raises(InvalidParameterError, match="noise dimension"):
        _single_path_calls(spec, g, w)[fn]()


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
        _single_path_calls(bad, g, sample_noise(g, 1, seed=3))[fn]()
    assert exc.value.step == 6
