import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from monosde import (
    InvalidParameterError,
    MissingGradientsError,
    SingularDiffusionError,
    constant_weight,
    digital_payoff,
    gradients,
    identity_payoff,
    jacobian,
    linear_weight,
    make_grid,
    sample_noise,
    tanh_payoff,
    zoo_lookup,
)
from monosde.core import mc_estimate, sample_increments
from monosde.greeks import _samples, _weight_table
from monosde.models import CoefficientField, ModelSpec
from monosde.solver import (
    EULER, IMPLICIT, SCHEMES, TAMED, SchemeChoice, live_paths, simulate_batch,
)
from test_solver import STACK_CASES, _chunks
from test_variational import _twin_ginzburg_landau, stored_factors, stored_records


def test_skorokhod_ito_isometry():
    g = make_grid(1.0, 32)
    f = np.linspace(0.5, 1.5, 32)  # deterministic integrand
    inc = sample_increments(g, 1, seed=3, start=0, count=20_000)
    vals = np.einsum("n,bn->b", f, inc[..., 0])
    second = vals**2
    target = float(np.sum(f**2) * g.dt)
    z = abs(second.mean() - target) / (second.std(ddof=1) / math.sqrt(len(second)))
    assert z <= 3.0


def test_bel_weights_normalized():
    g = make_grid(1.0, 100)
    a = _weight_table((constant_weight(), linear_weight()), g)
    assert a.shape == (2, 100)
    for row in a:
        assert abs(float(row.sum()) * g.dt - 1.0) <= 1e-12
    spec = zoo_lookup("gbm")
    with pytest.raises(InvalidParameterError, match="needs weights, eps or both"):
        gradients(spec, g, SchemeChoice(EULER), identity_payoff(), 8, 0)
    with pytest.raises(InvalidParameterError, match="^eps must be > 0$"):
        gradients(spec, g, SchemeChoice(EULER), identity_payoff(), 8, 0, eps=0.0)
    # weights with no mass, a non-finite value or one non-finite value at
    # s = 0 are refused with a typed error, also under python -O
    bad = (
        lambda s, t: 0.0,
        lambda s, t: math.nan,
        lambda s, t: math.inf,
        lambda s, t: math.inf if s == 0 else 1.0,
    )
    for weight in bad:
        with pytest.raises(InvalidParameterError, match="weight"):
            gradients(spec, g, SchemeChoice(EULER), identity_payoff(), 8, 0,
                      weights=(constant_weight(), weight))


@pytest.mark.parametrize("estimate", [
    lambda spec, w: jacobian(spec, w, SchemeChoice(EULER)),
    lambda spec, w: gradients(spec, w.grid, SchemeChoice(EULER), identity_payoff(), 8, 0,
                              weights=(constant_weight(),)),
], ids=["jacobian", "bel"])
def test_variational_passes_need_the_drift_gradient(estimate):
    gbm = zoo_lookup("gbm")
    spec = replace(gbm, field=replace(gbm.field, grad_drift=None))
    with pytest.raises(MissingGradientsError, match="^model does not supply coefficient gradients$"):
        estimate(spec, sample_noise(make_grid(1.0, 8), 1, seed=1))


def test_bel_gbm_delta_matches_closed_form():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 256)
    (rep,) = gradients(
        spec, g, SchemeChoice(EULER), identity_payoff(), 50_000, 5,
        weights=(constant_weight(),),
    )
    z = abs(rep.estimate.mean[0] - math.exp(0.05)) / rep.estimate.stderr[0]
    assert z <= 3.0


def test_bel_constant_payoff_mean_zero_weight():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 128)
    (rep,) = gradients(
        spec, g, SchemeChoice(EULER), lambda x: np.full(x.shape[0], 2.5),
        20_000, 6, weights=(constant_weight(),),
    )
    z = abs(rep.estimate.mean[0]) / rep.estimate.stderr[0]
    assert z <= 3.0


def test_bel_digital_delta():
    # measurable payoff: BEL matches the lognormal digital delta
    mu, sig, x, K, T = 0.05, 0.2, 1.0, 1.0, 1.0
    spec = zoo_lookup("gbm", {"mu": mu, "sigma": sig, "x0": x})
    g = make_grid(T, 256)
    (rep,) = gradients(
        spec, g, SchemeChoice(EULER), digital_payoff(K), 100_000, 7,
        weights=(constant_weight(),),
    )
    d2 = (math.log(x / K) + (mu - 0.5 * sig**2) * T) / (sig * math.sqrt(T))
    closed = math.exp(-0.5 * d2**2) / math.sqrt(2 * math.pi) / (x * sig * math.sqrt(T))
    z = abs(rep.estimate.mean[0] - closed) / rep.estimate.stderr[0]
    assert z <= 3.0


def test_bel_and_fd_digital_delta():
    # the lognormal digital delta phi(d2) / (x sigma sqrt(T)) = 1.97240, from
    # both BEL weights and the central difference on one noise draw; BEL
    # needs no smoothness of the payoff, so its stderr is below FD's
    mu, sig, x, K, T = 0.05, 0.2, 1.0, 1.0, 1.0
    spec = zoo_lookup("gbm", {"mu": mu, "sigma": sig, "x0": x})
    reps = gradients(
        spec, make_grid(T, 256), SchemeChoice(EULER), digital_payoff(K), 100_000, 5, 2,
        weights=(constant_weight(), linear_weight()), eps=1e-2,
    )
    d2 = (math.log(x / K) + (mu - 0.5 * sig**2) * T) / (sig * math.sqrt(T))
    closed = math.exp(-0.5 * d2**2) / math.sqrt(2 * math.pi) / (x * sig * math.sqrt(T))
    assert [rep.method for rep in reps] == ["bel", "bel", "fd"]
    for rep in reps:
        assert abs(rep.estimate.mean[0] - closed) <= 3.0 * rep.estimate.stderr[0]
    assert max(rep.estimate.stderr[0] for rep in reps[:2]) < reps[2].estimate.stderr[0]


def test_bel_weight_invariance():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 128)
    reps = gradients(
        spec, g, SchemeChoice(EULER), identity_payoff(), 20_000, 8,
        weights=(constant_weight(), linear_weight()),
    )
    comb = math.hypot(reps[0].estimate.stderr[0], reps[1].estimate.stderr[0])
    assert abs(reps[0].estimate.mean[0] - reps[1].estimate.mean[0]) <= 1.96 * comb


def test_bel_vs_fd_on_ginzburg_landau():
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0})
    g = make_grid(1.0, 512)
    rb, rf = gradients(
        spec, g, SchemeChoice(TAMED), tanh_payoff(), 10_000, 9,
        weights=(constant_weight(),), eps=1e-3,
    )
    comb = math.hypot(rb.estimate.stderr[0], rf.estimate.stderr[0])
    assert abs(rb.estimate.mean[0] - rf.estimate.mean[0]) <= 3.0 * comb


@pytest.mark.parametrize(
    "x0, T, N, kind, n_paths, workers",
    [
        (1.0, 1.0, 32, TAMED, 1500, 1),
        (1.0, 1.0, 32, TAMED, 1500, 2),
        # explicit Euler from x0 = 3 with dt = 1/4 blows up on some paths
        (3.0, 2.0, 8, EULER, 1100, 2),
        (1.0, 1.0, 32, IMPLICIT, 1100, 1),
        (3.0, 2.0, 8, IMPLICIT, 1100, 2),
    ],
)
def test_fused_pass_equals_separate_estimators(x0, T, N, kind, n_paths, workers):
    # one chunk per worker: at workers 2 the two chunks run on the pool
    assert len(_chunks(N, 1, n_paths, workers)) == workers
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0, "x0": x0})
    g = make_grid(T, N)
    scheme = SchemeChoice(kind)
    weights = (constant_weight(), linear_weight())

    def run(**kw):
        return gradients(spec, g, scheme, tanh_payoff(), n_paths, 21, **kw)

    # one weight with FD, and two weights with FD, against each alone
    bel, fd = run(weights=weights[:1], eps=1e-3, workers=workers)
    bel_c, bel_l, fd2 = run(weights=weights, eps=1e-3, workers=workers)
    (rc,), (rl,), (rf,) = run(weights=weights[:1]), run(weights=weights[1:]), run(eps=1e-3)
    pairs = ((bel, rc), (fd, rf), (bel_c, rc), (bel_l, rl), (fd2, rf))
    for fused, alone in pairs:
        assert fused.method == alone.method
        assert np.array_equal(fused.estimate.mean, alone.estimate.mean)
        assert np.array_equal(fused.estimate.stderr, alone.estimate.stderr)
        assert fused.estimate.n_paths == alone.estimate.n_paths
        assert fused.n_diverged == alone.n_diverged
        assert fused.estimate.n_paths + fused.n_diverged == n_paths
    assert (bel.n_diverged > 0) == (kind == EULER)


@pytest.mark.filterwarnings("error")
def test_bel_on_diverged_paths_warns_nothing():
    # explicit Euler from x0 = 3 diverges on about half the paths; their
    # frozen states overflow the weight recursion, which must stay quiet and
    # leave the estimate as recorded before the warnings were silenced (and
    # again when the GL drift's cube became u * u * u)
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0, "x0": 3.0})
    g = make_grid(2.0, 8)
    bel, fd = gradients(
        spec, g, SchemeChoice(EULER), tanh_payoff(), 1100, 21, workers=2,
        weights=(constant_weight(),), eps=1e-3,
    )
    assert bel.n_diverged == 538
    assert bel.estimate.mean[0] == -19.13177474500459
    assert bel.estimate.stderr[0] == 18.97599644229478
    assert fd.n_diverged == 539
    assert fd.estimate.mean[0] == 5.302687385580806


def test_bel_requires_deterministic_coefficients():
    spec = zoo_lookup("random_sigma_example")
    g = make_grid(1.0, 64)
    with pytest.raises(InvalidParameterError):
        gradients(
            spec, g, SchemeChoice(EULER), identity_payoff(), 64, 10,
            weights=(constant_weight(),),
        )


def test_bel_requires_a_square_diffusion():
    # d = 1, m = 2: sigma has no inverse to weight the two noise components
    field = CoefficientField(
        1, 2,
        lambda t, h, x: -x,
        lambda t, h, x: np.ones((x.shape[0], 1, 2)),
        lambda t, h, x: -np.ones((x.shape[0], 1, 1)),
        lambda t, h, x: np.zeros((x.shape[0], 1, 2, 1)),
    )
    spec = ModelSpec("ou_two_noises", field, {}, np.ones(1))
    g = make_grid(1.0, 8)
    with pytest.raises(InvalidParameterError, match=r"^BEL requires a square diffusion \(m = d\)$"):
        gradients(spec, g, SchemeChoice(EULER), identity_payoff(), 64, 10,
                  weights=(constant_weight(),))
    # the central difference needs no inverse
    (fd,) = gradients(spec, g, SchemeChoice(EULER), identity_payoff(), 64, 10, eps=1e-3)
    assert np.all(np.isfinite(fd.estimate.mean))


def test_bel_singular_diffusion_raises():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.0})
    g = make_grid(1.0, 32)
    with pytest.raises(SingularDiffusionError):
        gradients(
            spec, g, SchemeChoice(EULER), identity_payoff(), 64, 11,
            weights=(constant_weight(),),
        )


def test_fd_constant_payoff_is_exactly_zero():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 64)
    (rep,) = gradients(
        spec, g, SchemeChoice(EULER), lambda x: np.ones(x.shape[0]), 256, 12,
        eps=1e-3,
    )
    assert rep.estimate.mean[0] == 0.0
    assert rep.estimate.stderr[0] == 0.0


def test_fd_gbm_eps_independent():
    # GBM is linear in the initial condition: the FD estimate is eps-free
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 128)
    reps = [
        gradients(spec, g, SchemeChoice(EULER), identity_payoff(), 2048, 13, eps=eps)[0]
        for eps in (1e-2, 1e-4)
    ]
    assert reps[0].estimate.mean[0] == pytest.approx(
        reps[1].estimate.mean[0], rel=1e-9
    )
    assert reps[0].estimate.mean[0] == pytest.approx(math.exp(0.05), abs=0.05)


def test_fd_eps_ladder_self_consistent():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 256)
    reps = [
        gradients(spec, g, SchemeChoice(TAMED), tanh_payoff(), 4096, 14, eps=eps)[0]
        for eps in (1e-2, 5e-3)
    ]
    comb = math.hypot(reps[0].estimate.stderr[0], reps[1].estimate.stderr[0])
    assert abs(reps[0].estimate.mean[0] - reps[1].estimate.mean[0]) <= max(
        1.96 * comb, 1e-4
    )


@pytest.mark.filterwarnings("error")
def test_bel_d2_keeps_the_estimate_when_paths_diverge():
    # two uncoupled GL components from x0 = 3 under explicit Euler: most paths
    # diverge, and their overflowing weights must not refuse the estimate
    spec = ModelSpec("twin_gl", _twin_ginzburg_landau(1.0), {}, np.full(2, 3.0))
    g = make_grid(2.0, 8)
    (rep,) = gradients(
        spec, g, SchemeChoice(EULER), tanh_payoff(), 1100, 21,
        weights=(constant_weight(),),
    )
    assert rep.n_diverged == 798
    assert rep.estimate.n_paths == 1100 - 798
    assert np.all(np.isfinite(rep.estimate.mean))


def test_bel_d2_large_jacobian_is_not_singular():
    # dX = 504 X dt + dW in d = 2, explicit Euler with dt = 1/8: J_i = 64^i I
    # passes 1e12 while sigma = I stays perfectly conditioned
    lam = 504.0
    eye = np.eye(2)
    field = CoefficientField(
        2,
        2,
        lambda t, h, x: lam * x,
        lambda t, h, x: np.broadcast_to(eye, (x.shape[0], 2, 2)),
        lambda t, h, x: np.broadcast_to(lam * eye, (x.shape[0], 2, 2)),
        lambda t, h, x: np.zeros((x.shape[0], 2, 2, 2)),
        monotone_const=lam,
    )
    g = make_grid(1.0, 8)
    (rep,) = gradients(
        ModelSpec("linear_d2", field, {}, np.ones(2)), g, SchemeChoice(EULER),
        identity_payoff(), 64, 3, weights=(constant_weight(),),
    )
    assert rep.n_diverged == 0
    assert np.all(np.isfinite(rep.estimate.mean))


@pytest.mark.parametrize(
    "small, message", [(1e-13, "diffusion below"), (0.0, "diffusion below")]
)
def test_bel_d2_singular_live_row_raises(small, message):
    # diverged rows share the batch with one live row whose sigma = diag(x)
    # has a (near) zero entry
    field = _twin_ginzburg_landau(1.0)
    g = make_grid(2.0, 8)
    theta = np.full((64, 2), 3.0)
    theta[-1] = (1.0, small)
    scheme = SchemeChoice(EULER)
    inc = sample_increments(g, 2, 21, 0, 64)
    out = simulate_batch(field, g, inc, theta, scheme)
    assert np.any(out.diverged) and not out.diverged[0, -1]
    a = _weight_table((constant_weight(),), g)
    with pytest.raises(SingularDiffusionError, match=message):
        _samples(field, g, scheme, theta, tanh_payoff(), inc, a=a)


def test_bel_d2_singular_sigma_on_a_diverged_row_is_masked():
    # row 0 starts on sigma = diag(50, 0), exactly singular, and diverges at
    # step 5; its NaN sigma^{-1} J is masked out like a near-singular one
    field = _twin_ginzburg_landau(1.0)
    g = make_grid(2.0, 8)
    theta = np.ones((64, 2))
    theta[0] = (50.0, 0.0)
    inc = sample_increments(g, 2, 21, 0, 64)
    a = _weight_table((constant_weight(),), g)
    vals, first_bad = _samples(field, g, SchemeChoice(EULER), theta, tanh_payoff(), inc, a=a)
    assert first_bad[0] == 5
    assert np.all(first_bad[1:] == g.N + 1)
    assert np.all(np.isfinite(vals[1:]))


def _time_singular_field(scales):
    """d = m = 2 with zero drift and sigma = diag(1, scales[i]) on step i."""
    N = len(scales)

    def diffusion(t, h, x):
        s = scales[min(round(t * N), N - 1)]
        return np.broadcast_to(np.diag([1.0, s]), (x.shape[0], 2, 2))

    def zeros(shape):
        return lambda t, h, x: np.zeros((x.shape[0],) + shape)

    return CoefficientField(2, 2, zeros((2,)), diffusion, zeros((2, 2)), zeros((2, 2, 2)))


@pytest.mark.parametrize(
    "scales, message",
    [
        # near singular at step 1, exactly singular at step 3: the earlier
        # step wins
        ([1.0, 1e-13, 1.0, 0.0], "diffusion below 1/1e\\+12 at step 1$"),
        ([1.0, 1.0, 1.0, 0.0], "diffusion below 1/1e\\+12 at step 3$"),
    ],
)
def test_bel_d2_reports_the_first_singular_step(scales, message):
    g = make_grid(1.0, len(scales))
    inc = sample_increments(g, 2, 4, 0, 8)
    a = _weight_table((constant_weight(),), g)
    with pytest.raises(SingularDiffusionError, match=message):
        _samples(_time_singular_field(scales), g, SchemeChoice(EULER), np.ones(2),
                 identity_payoff(), inc, a=a)


def _stored_samples(spec, g, scheme, payoff, a, eps, inc):
    """BEL and FD samples of one chunk from separate stored runs: the BEL
    weights by the recursion over the records rebuilt from the base values,
    one run per row of the weight table a, FD from one run per bumped start."""
    d, N = spec.d, g.N
    samples = []
    if a is not None:
        cols = []
        for a_l in a:
            out, vf = stored_factors(spec.field, g, inc, spec.theta0, scheme)
            J = np.broadcast_to(np.eye(d), (len(inc), d, d)).copy()
            wstar = np.zeros((len(inc), d))
            with np.errstate(over="ignore", invalid="ignore"):
                for rec in stored_records(vf, out):
                    i = rec.i
                    vf.take(rec)
                    siginv_j = J / vf.sig if d == 1 else np.linalg.solve(vf.sig, J)
                    wstar = wstar + a_l[i] * np.einsum(
                        "bdm,bm->bd", siginv_j.transpose(0, 2, 1), vf.dw
                    )
                    J = J + vf.amat @ J
                cols.append(payoff(out.values[0, :, N])[:, None] * wstar)
        samples += [np.stack(cols, axis=1), out.first_bad[0]]
    if eps is not None:
        grads = np.empty((len(inc), d))
        bad = []
        for k in range(d):
            bump = np.zeros(d)
            bump[k] = eps
            up = simulate_batch(spec.field, g, inc, spec.theta0 + bump, scheme)
            dn = simulate_batch(spec.field, g, inc, spec.theta0 - bump, scheme)
            grads[:, k] = (payoff(up.values[0, :, N]) - payoff(dn.values[0, :, N])) / (2.0 * eps)
            bad += [up.first_bad[0], dn.first_bad[0]]
        samples += [grads, np.min(bad, axis=0)]
    return samples


@pytest.mark.parametrize("kind", SCHEMES)
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_pass_equals_separate_stored_runs(case, kind):
    # one stacked pass per chunk gives the per-path samples of separate
    # stored runs bit for bit, one run per weight; BEL needs deterministic
    # coefficients, so the random-coefficient case runs FD alone
    make_spec, T, N = STACK_CASES[case]
    spec = make_spec()
    g = make_grid(T, N)
    scheme = SchemeChoice(kind)
    inc = sample_increments(g, spec.m, 21, 0, 300)
    payoff = tanh_payoff()
    weights = (constant_weight(), linear_weight())
    a = _weight_table(weights, g) if spec.field.deterministic else None
    got = _samples(spec.field, g, scheme, spec.theta0, payoff, inc, a, 1e-3)
    want = _stored_samples(spec, g, scheme, payoff, a, 1e-3, inc)
    assert len(got) == len(want) == (4 if a is not None else 2)
    for x, y in zip(got, want):
        assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
    # the 300 paths are one chunk, so gradients reduces the same samples
    grads, first_bad = want[-2:]
    (fd,) = gradients(spec, g, scheme, payoff, 300, 21, eps=1e-3)
    live = live_paths(first_bad, N)
    assert fd.n_diverged == np.count_nonzero(~live)
    ref = mc_estimate(grads[live])
    assert np.array_equal(fd.estimate.mean, ref.mean)
    assert np.array_equal(fd.estimate.stderr, ref.stderr)


def test_greeks_chunk_stores_no_path_values():
    # a 1024-path BEL + FD chunk on GL at N = 256 allocates less than 1 KB
    # per path on top of its 2 KB/path of increments; three stored
    # (B, N+1, 1) value arrays alone would take 6 KB
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 256)
    a = _weight_table((constant_weight(),), g)
    inc = sample_increments(g, 1, 1, 0, 1024)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _samples(spec.field, g, SchemeChoice(TAMED), spec.theta0, tanh_payoff(), inc, a, 1e-3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / 1024 < 1024


def test_bel_near_singular_row_that_diverges_later_does_not_raise():
    # sigma = diag(x) is near singular at step 0 on the last row, which then
    # diverges at step 5: a path masked out of the estimate raises nothing
    field = _twin_ginzburg_landau(1.0)
    g = make_grid(2.0, 8)
    theta = np.ones((64, 2))
    theta[-1] = (50.0, 1e-13)
    scheme = SchemeChoice(EULER)
    inc = sample_increments(g, 2, 21, 0, 64)
    a = _weight_table((constant_weight(),), g)
    _, first_bad = _samples(field, g, scheme, theta, tanh_payoff(), inc, a=a)
    assert first_bad[-1] == 5 and np.all(first_bad[:-1] == g.N + 1)
    # the same row started at 1 stays live, and raises at step 0
    theta[-1] = (1.0, 1e-13)
    with pytest.raises(SingularDiffusionError, match="at step 0"):
        _samples(field, g, scheme, theta, tanh_payoff(), inc, a=a)
