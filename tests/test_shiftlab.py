import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from monosde import (
    CameronMartinPath,
    DivergenceError,
    InvalidParameterError,
    NewtonFailureError,
    cameron_martin_check,
    clipped_sup_norm,
    doleans_dade,
    gateaux_ladder,
    make_grid,
    sample_noise,
    terminal_value,
    zoo_lookup,
)
from monosde.core import mc_estimate, paired_z_score, sample_increments
from monosde.shiftlab import _ladder_samples, _log_dd
from monosde.solver import (
    EULER, IMPLICIT, SCHEMES, TAMED, SchemeChoice, live_paths, simulate_batch, sup_norms,
)
from test_solver import STACK_CASES
from test_variational import stored_factors, stored_records


def test_doleans_dade_zero_direction():
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=1)
    h = CameronMartinPath.constant(g, 0.0)
    assert doleans_dade(w, h, g.N) == 1.0


def test_doleans_dade_constant_direction():
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=2)
    c = 0.8
    h = CameronMartinPath.constant(g, c)
    w_T = w.brownian()[-1, 0]
    assert math.log(doleans_dade(w, h, g.N)) == pytest.approx(
        c * w_T - 0.5 * c**2, abs=1e-12
    )


def test_doleans_dade_positive_and_martingale():
    g = make_grid(1.0, 128)
    h = CameronMartinPath.constant(g, 0.5)
    inc = sample_increments(g, 1, seed=3, start=0, count=10_000)
    dd = np.exp(_log_dd(inc, h, g.N))
    assert np.all(dd > 0)
    z = abs(dd.mean() - 1.0) / (dd.std(ddof=1) / math.sqrt(len(dd)))
    assert z <= 3.0


def test_cameron_martin_constant_functional():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    g = make_grid(1.0, 128)
    h = CameronMartinPath.constant(g, 0.5)
    rep = cameron_martin_check(
        spec, g, SchemeChoice(EULER), h, lambda v: np.ones(v.shape[0]),
        n_paths=2048, seed=4,
    )
    assert rep.lhs.mean[0] == pytest.approx(1.0)
    assert rep.z_score <= 3.0


def test_cameron_martin_gbm_terminal_value():
    mu, sig, c = 0.05, 0.2, 0.5
    spec = zoo_lookup("gbm", {"mu": mu, "sigma": sig})
    g = make_grid(1.0, 1024)
    h = CameronMartinPath.constant(g, c)
    rep = cameron_martin_check(
        spec, g, SchemeChoice(EULER), h, terminal_value(), n_paths=8192, seed=5
    )
    assert rep.z_score <= 3.0
    # shifted GBM expectation is x e^{(mu + sigma c) T}
    analytic = math.exp((mu + sig * c) * 1.0)
    assert abs(rep.lhs.mean[0] - analytic) <= 4.0 * rep.lhs.stderr[0] + 1e-3


def test_cameron_martin_ou_clipped_sup():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    g = make_grid(1.0, 512)
    h = CameronMartinPath.constant(g, 0.5)
    rep = cameron_martin_check(
        spec, g, SchemeChoice(EULER), h, clipped_sup_norm(10.0),
        n_paths=10_000, seed=6,
    )
    assert rep.z_score <= 3.0
    assert rep.n_diverged == 0


def test_gateaux_ladder_gbm_linear_in_eps():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 256)
    h = CameronMartinPath.constant(g, 1.0)
    eps = [0.5, 0.25, 0.125, 0.0625]
    lad = gateaux_ladder(
        spec, g, SchemeChoice(EULER), h, eps, [1e-1, 1e-2], n_paths=2048, seed=7
    )
    # pathwise Delta_eps = O(eps): halving eps roughly halves the mean error
    ratios = lad.mean_error[:-1] / lad.mean_error[1:]
    assert np.all(ratios > 1.5)
    assert np.all(np.diff(lad.exceedance[:, 1]) <= 0)
    assert np.all(lad.diverged == 0)


def test_gateaux_ladder_rejects_bad_input():
    spec = zoo_lookup("ou")
    g = make_grid(1.0, 32)
    with pytest.raises(InvalidParameterError):
        gateaux_ladder(
            spec, g, SchemeChoice(TAMED), CameronMartinPath.constant(g, 0.0),
            [0.5, 0.25], [0.1], n_paths=64, seed=8,
        )
    with pytest.raises(InvalidParameterError):
        gateaux_ladder(
            spec, g, SchemeChoice(TAMED), CameronMartinPath.constant(g, 1.0),
            [0.25, 0.5], [0.1], n_paths=64, seed=8,
        )


@pytest.mark.filterwarnings("error")
def test_gateaux_ladder_leaves_diverged_paths_out():
    # 32 of the 64 Euler paths diverge; the statistics come from the other 32
    spec = zoo_lookup("ginzburg_landau", {"x0": 3.0})
    g = make_grid(2.0, 8)
    lad = gateaux_ladder(
        spec, g, SchemeChoice(EULER), CameronMartinPath.constant(g, 1.0),
        [0.5, 0.25, 0.125], [0.1, 0.01], n_paths=64, seed=5,
    )
    assert np.all(np.isfinite(lad.mean_error)) and np.all(np.isfinite(lad.stderr))
    assert np.all(lad.diverged == 32)
    assert np.all(lad.exceedance[:, 1] == 1.0)


def test_gateaux_ladder_raises_when_every_path_diverged():
    spec = zoo_lookup("ginzburg_landau", {"x0": 50.0})
    g = make_grid(2.0, 8)
    with pytest.raises(DivergenceError, match=r"at step 5 \(path 0\)$"):
        gateaux_ladder(
            spec, g, SchemeChoice(EULER), CameronMartinPath.constant(g, 1.0),
            [0.5, 0.25], [0.1], n_paths=16, seed=0,
        )


@pytest.mark.parametrize("T, N", [(1.0, 32), (1.0, 1), (2.0, 64)])
def test_cameron_martin_rejects_a_direction_on_another_grid(monkeypatch, T, N):
    import monosde.shiftlab as shiftlab

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking h")

    monkeypatch.setattr(shiftlab, "simulate_batch", no_simulation)
    spec = zoo_lookup("ou")
    h = CameronMartinPath.constant(make_grid(T, N), 0.5)
    with pytest.raises(InvalidParameterError, match="direction h"):
        cameron_martin_check(
            spec, make_grid(1.0, 64), SchemeChoice(EULER), h, terminal_value(),
            n_paths=64, seed=1,
        )


def test_gateaux_ladder_rows_schema():
    spec = zoo_lookup("ou")
    g = make_grid(1.0, 64)
    lad = gateaux_ladder(
        spec, g, SchemeChoice(TAMED), CameronMartinPath.constant(g, 1.0),
        [0.5, 0.25], [0.1, 0.01, 0.001], n_paths=256, seed=9,
    )
    rows = lad.rows()
    assert len(rows) == 2 * 3  # one row per (epsilon, delta) pair


def _stored_directional(out, vf, h):
    """D^h X (B, N+1, d) along the stored paths of out, stepped on the records
    rebuilt from its values (vf from stored_factors) and the unshifted
    increments: the ladder's D^h X before it read the kernel's step records."""
    field, grid = vf.field, out.grid
    B, d, m = out.values.shape[0], field.d, field.m
    N, dt = grid.N, grid.dt
    hist, hd = out.hist, h.density
    vals = np.zeros((B, N + 1, d))
    y = np.zeros((B, d))
    left = grid.left_times
    for rec in stored_records(vf, out):
        i = rec.i
        t = i * dt
        vf.take(rec)
        force_dt = np.einsum("bdm,m->bd", vf.sig, hd[i]) * dt
        if field.mall_drift is not None and i > 0:
            u = np.asarray(field.mall_drift(left[:i], t, hist), dtype=float)
            u = np.broadcast_to(u, (B, i, d, m))
            force_dt = force_dt + np.einsum("bsdm,sm->bd", u, hd[:i]) * dt * dt
        force_dw = np.zeros((B, d))
        if field.mall_diffusion is not None and i > 0:
            v = np.asarray(field.mall_diffusion(left[:i], t, hist), dtype=float)
            v = np.broadcast_to(v, (B, i, d, m, m))
            iv = np.einsum("bsdjk,sk->bdj", v, hd[:i]) * dt
            force_dw = np.einsum("bdj,bj->bd", iv, hist.increments[:, i])
        y = y + np.einsum("bij,bj->bi", vf.amat, y) + force_dt + force_dw
        vals[:, i + 1] = y
    return vals


def _stored_ladder(spec, g, scheme, h, eps, inc):
    """Per-path Delta_eps and first_bad from separate stored runs on
    inc + eps h dt."""
    base, vf = stored_factors(spec.field, g, inc, spec.theta0, scheme)
    errs = np.empty((len(inc), len(eps)))
    first_bad = np.empty((len(inc), len(eps)), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        dh = _stored_directional(base, vf, h)
        for a, e in enumerate(eps):
            bumped = simulate_batch(
                spec.field, g, inc + e * (h.density * g.dt), spec.theta0, scheme
            )
            errs[:, a] = sup_norms((bumped.values - base.values) / e - dh)
            first_bad[:, a] = np.minimum(base.first_bad, bumped.first_bad)
    return errs, first_bad


def _with_drift_noise_derivative(spec):
    """spec with a nonzero U(s, t) = s t, so D^h X carries the U forcing."""
    def U(s_vals, t, hist):
        s = np.atleast_1d(np.asarray(s_vals, dtype=float))
        return (s * t)[:, None, None]

    return replace(spec, field=replace(spec.field, mall_drift=U))


#: the stacked-variant cases, plus random sigma with a nonzero U as well as V
LADDER_CASES = dict(
    STACK_CASES,
    random_sigma_u=(
        lambda: _with_drift_noise_derivative(zoo_lookup("random_sigma_example")), 1.0, 16,
    ),
)


@pytest.mark.parametrize("kind", SCHEMES)
@pytest.mark.parametrize("case", sorted(LADDER_CASES))
def test_stacked_ladder_equals_separate_stored_runs(case, kind):
    # one stacked pass per chunk gives each path's Delta_eps and first_bad of
    # separate stored runs with a stored-batch D^h X, bit for bit; on the
    # paths left out of the statistics a NaN error may differ in its sign bit
    make_spec, T, N = LADDER_CASES[case]
    spec = make_spec()
    g = make_grid(T, N)
    scheme = SchemeChoice(kind)
    h = CameronMartinPath(g, spec.m, np.linspace(0.5, 1.5, N * spec.m).reshape(N, spec.m))
    eps = np.array([0.5, 0.25, 0.125])
    inc = sample_increments(g, spec.m, 21, 0, 200)
    errs, first_bad = _ladder_samples(spec, g, scheme, h, eps, inc)
    want_errs, want_first_bad = _stored_ladder(spec, g, scheme, h, eps, inc)
    assert first_bad.dtype == want_first_bad.dtype
    assert np.ascontiguousarray(first_bad).tobytes() == want_first_bad.tobytes()
    live = first_bad > N
    assert errs[live].tobytes() == want_errs[live].tobytes()
    assert np.array_equal(errs, want_errs, equal_nan=True)
    if kind == EULER and case in ("gl_x0_3", "twin_gl"):
        assert not live.all()


@pytest.mark.parametrize("kind", SCHEMES)
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_cameron_martin_equals_separate_runs(case, kind):
    # the base and shifted solutions as one stacked batch give the report of
    # two separate stored runs, bit for bit
    make_spec, T, N = STACK_CASES[case]
    spec = make_spec()
    g = make_grid(T, N)
    scheme = SchemeChoice(kind)
    h = CameronMartinPath.constant(g, 0.5, spec.m)
    functional = clipped_sup_norm(10.0)
    inc = sample_increments(g, spec.m, 21, 0, 300)
    base = simulate_batch(spec.field, g, inc, spec.theta0, scheme)
    shifted = simulate_batch(spec.field, g, inc + h.density * g.dt, spec.theta0, scheme)
    live = live_paths(np.minimum(base.first_bad, shifted.first_bad), N)
    lhs = functional(shifted.values)[live]
    rhs = (functional(base.values) * np.exp(_log_dd(inc, h, N)))[live]
    rep = cameron_martin_check(spec, g, scheme, h, functional, n_paths=300, seed=21)
    for got, want in ((rep.lhs, mc_estimate(lhs)), (rep.rhs, mc_estimate(rhs))):
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()
    assert rep.z_score == paired_z_score(lhs - rhs)
    assert rep.n_diverged == np.count_nonzero(~live)


def test_cameron_martin_rejects_weights_of_too_small_effective_size():
    # every Doleans-Dade weight exp(1000 W_T - 5e5) underflows to 0
    spec = zoo_lookup("quintic", {"sigma": -1.0})
    g = make_grid(1.0, 2)
    with pytest.raises(InvalidParameterError, match="effective sample size 0 < 2"):
        cameron_martin_check(
            spec, g, SchemeChoice(EULER), CameronMartinPath.constant(g, 1000.0),
            clipped_sup_norm(10.0), n_paths=4000, seed=0,
        )


def test_ladder_chunk_stores_no_path_values():
    # a 1024-path, N = 256, 4-rung implicit ladder chunk allocates less than
    # 1 KB per path on top of its 2 KB/path of increments; one stored
    # (B, N+1, 1) values array alone would take 2 KB
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 256)
    h = CameronMartinPath.constant(g, 1.0)
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    inc = sample_increments(g, 1, 5, 0, 1024)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _ladder_samples(spec, g, SchemeChoice(IMPLICIT), h, eps, inc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / 1024 < 1024


def test_ladder_newton_failure_raises_at_the_earliest_step_of_the_stack():
    # run alone, the base paths fail Newton at step 5, the eps = 0.5 paths
    # at step 3 and the eps = 0.25 paths at step 5; the stacked chunk raises
    # at step 3, where the base-first separate runs raised at step 5
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 16)
    scheme = SchemeChoice(IMPLICIT, newton_max_iter=3)
    h = CameronMartinPath.constant(g, 1.0)
    eps = np.array([0.5, 0.25])
    inc = sample_increments(g, 1, 1, 0, 16)
    steps = []
    for e in (0.0, *eps):
        with pytest.raises(NewtonFailureError) as exc:
            simulate_batch(spec.field, g, inc + e * (h.density * g.dt), spec.theta0, scheme)
        steps.append(exc.value.step)
    assert steps == [5, 3, 5]
    with pytest.raises(NewtonFailureError) as exc:
        gateaux_ladder(spec, g, scheme, h, eps, [0.1], n_paths=16, seed=1)
    assert exc.value.step == 3
