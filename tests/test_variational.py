from dataclasses import replace

import numpy as np
import pytest

from monosde import (
    InvalidParameterError,
    finite_difference_jacobian,
    gateaux_direction,
    jacobian,
    make_grid,
    probe_assumptions,
    sample_noise,
    simulate,
    uniform_sampler,
    zoo_lookup,
)
from monosde.core import sample_increments
from monosde.models import CoefficientField, ModelSpec
from monosde.solver import (
    EULER, IMPLICIT, TAMED, SchemeChoice, StepRecord, Stepper, simulate_batch,
    tamed_denominator,
)
from monosde.variational import VariationalFactors


def stored_records(vf, out):
    """The StepRecords of the stored one-variant batch out, rebuilt from its
    values with sigma (and for tamed_euler the drift's denominator) evaluated
    again at them under the field and scheme of vf: the stored-batch
    reference for the kernel's records."""
    field, g, hist, values = vf.field, out.grid, out.hist, out.values[0]
    for i in range(g.N):
        t, x = i * g.dt, values[:, i]
        denom = None
        if vf.scheme.kind == TAMED:
            denom = tamed_denominator(field.drift(t, hist, x), g.dt)[None]
        yield StepRecord(
            i, x[None], field.diffusion(t, hist, x)[None], denom,
            hist.increments[None, :, i], values[None, :, i + 1],
        )


def stored_factors(field, g, inc, theta, scheme):
    """The stored batch of field on inc from theta, and VariationalFactors
    that read its stored_records: built on a Stepper of the same batch that
    is never stepped."""
    out = simulate_batch(field, g, inc, theta, scheme)
    return out, VariationalFactors(Stepper(field, g, inc, theta, scheme))


def test_gbm_jacobian_is_scaled_state():
    x0 = 1.3
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2, "x0": x0})
    g = make_grid(1.0, 1024)
    w = sample_noise(g, 1, seed=1)
    bun = jacobian(spec, w, SchemeChoice(EULER))
    ref = bun.base.values[:, 0] / x0
    assert np.max(np.abs(bun.J[:, 0, 0] - ref) / np.abs(ref)) < 1e-12


def test_ou_bundle_recursions():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    g = make_grid(1.0, 512)
    w = sample_noise(g, 1, seed=2)
    bun = jacobian(spec, w, SchemeChoice(EULER))
    i = np.arange(g.N + 1, dtype=float)
    assert np.max(np.abs(bun.J[:, 0, 0] - (1 - g.dt) ** i)) < 1e-14
    # K matches the inverse recursion up to the O(N dt^4) expansion remainder
    assert np.max(np.abs(bun.K[:, 0, 0] - (1 - g.dt) ** (-i))) < 1e-7
    # Wronskian agrees with J at O(dt) and is positive
    assert np.max(np.abs(bun.D - bun.J[:, 0, 0])) < 2 * g.dt
    assert np.all(bun.D > 0)


def test_gl_inverse_and_wronskian_defects_halve():
    spec = zoo_lookup("ginzburg_landau")
    cs_inv, cs_wro = [], []
    for N in (512, 1024):
        g = make_grid(1.0, N)
        inv_d, wro_d = [], []
        for p in range(4):
            w = sample_noise(g, 1, seed=3, path_index=p)
            bun = jacobian(spec, w, SchemeChoice(TAMED))
            inv_d.append(bun.inverse_defect())
            wro_d.append(bun.wronskian_defect())
            assert np.all(bun.D > 0)
        cs_inv.append(np.mean(inv_d) / g.dt)
        cs_wro.append(np.mean(wro_d) / g.dt)
    assert cs_inv[1] <= 2.0 * cs_inv[0]
    assert cs_wro[1] <= 2.0 * cs_wro[0]


def test_flow_semigroup():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 256)
    w = sample_noise(g, 1, seed=4)
    bun = jacobian(spec, w, SchemeChoice(TAMED))
    assert np.array_equal(bun.flow_between(0, g.N), bun.J[g.N])
    for s in (32, 128, 255):
        assert abs(bun.flow_between(s, s)[0, 0] - 1.0) < 5 * g.dt


def test_gateaux_zero_direction():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 128)
    w = sample_noise(g, 1, seed=5)
    f = gateaux_direction(spec, w, SchemeChoice(TAMED), np.array([0.0]))
    assert np.all(f.values == 0.0)


def test_gateaux_equals_jacobian_action():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 256)
    w = sample_noise(g, 1, seed=6)
    bun = jacobian(spec, w, SchemeChoice(TAMED))
    f = gateaux_direction(spec, w, SchemeChoice(TAMED), np.array([0.7]))
    ref = bun.J[:, 0, 0] * 0.7
    assert np.max(np.abs(f.values[:, 0] - ref)) < 1e-12 * np.max(np.abs(ref))


def test_gateaux_linearity():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 256)
    w = sample_noise(g, 1, seed=7)
    scheme = SchemeChoice(TAMED)
    f1 = gateaux_direction(spec, w, scheme, np.array([0.3]))
    f2 = gateaux_direction(spec, w, scheme, np.array([-0.4]))
    f12 = gateaux_direction(spec, w, scheme, np.array([0.3 - 0.8]))
    combo = f1.values + 2.0 * f2.values
    scale = np.max(np.abs(f12.values)) + 1e-30
    assert np.max(np.abs(f12.values - combo)) / scale < 1e-12


def _linear_field(B, b, sigma):
    """dX = (B(t) X + b) dt + sigma dW as a coefficient field, with B(t)
    (d, d), b (d,) and sigma (d, m) constant in the state."""
    d, m = np.shape(sigma)
    return CoefficientField(
        d, m,
        lambda t, h, x: (B(t) @ x[:, :, None])[:, :, 0] + b,
        lambda t, h, x: np.broadcast_to(sigma, (len(x), d, m)),
        lambda t, h, x: np.broadcast_to(B(t), (len(x), d, d)),
        lambda t, h, x: np.zeros((len(x), d, m, d)),
    )


def test_linear_sde_deterministic_forcing():
    field = _linear_field(lambda t: np.zeros((1, 1)), np.array([2.0]), np.zeros((1, 1)))
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=8)
    x = simulate(ModelSpec("linear", field, {}, np.array([1.0])), w, SchemeChoice(EULER))
    assert np.allclose(x.values[:, 0], 1.0 + 2.0 * g.nodes, atol=1e-12)


def test_linear_sde_pure_brownian():
    field = _linear_field(lambda t: np.zeros((1, 1)), np.zeros(1), np.ones((1, 1)))
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=9)
    x = simulate(ModelSpec("linear", field, {}, np.array([0.5])), w, SchemeChoice(EULER))
    ref = 0.5 + w.brownian()[:, 0]
    assert np.allclose(x.values[:, 0], ref, atol=1e-12)


def test_finite_difference_gbm_exact_for_any_eps():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 256)
    w = sample_noise(g, 1, seed=11)
    bun = jacobian(spec, w, SchemeChoice(EULER))
    for eps in (1e-1, 1e-3):
        fd = finite_difference_jacobian(spec, w, SchemeChoice(EULER), eps)
        assert np.max(np.abs(fd[:, 0, 0] - bun.J[:, 0, 0])) < 1e-9


def test_finite_difference_ladder_on_gl():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 256)
    w = sample_noise(g, 1, seed=12)
    bun = jacobian(spec, w, SchemeChoice(TAMED))
    errs = [
        np.max(
            np.abs(
                finite_difference_jacobian(spec, w, SchemeChoice(TAMED), eps)[:, 0, 0]
                - bun.J[:, 0, 0]
            )
        )
        for eps in (1e-2, 1e-3, 1e-4)
    ]
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def _separate_fd(spec, w, scheme, eps):
    """finite_difference_jacobian as two separate stored runs per direction."""
    d = spec.d
    fd = np.empty((w.grid.N + 1, d, d))
    for k in range(d):
        bump = np.zeros(d)
        bump[k] = eps
        up = simulate_batch(spec.field, w.grid, w.increments[None], spec.theta0 + bump, scheme)
        dn = simulate_batch(spec.field, w.grid, w.increments[None], spec.theta0 - bump, scheme)
        fd[:, :, k] = (up.values[0] - dn.values[0]) / (2.0 * eps)
    return fd


@pytest.mark.parametrize("kind", [EULER, TAMED, IMPLICIT])
@pytest.mark.parametrize("model", ["gl", "twin_gl"])
def test_finite_difference_stacked_equals_separate_runs(model, kind):
    # the 2d bumped starts stepped as one stacked batch give the central
    # differences of separate runs per direction, bit for bit
    if model == "gl":
        spec = zoo_lookup("ginzburg_landau", {"x0": 1.5})
    else:
        spec = ModelSpec("twin_gl", _twin_ginzburg_landau(1.0), {}, np.array([1.5, -0.5]))
    g = make_grid(1.0, 64)
    w = sample_noise(g, spec.m, seed=14, path_index=2)
    scheme = SchemeChoice(kind)
    got = finite_difference_jacobian(spec, w, scheme, 1e-3)
    assert got.tobytes() == _separate_fd(spec, w, scheme, 1e-3).tobytes()


def test_finite_difference_rejects_zero_eps():
    spec = zoo_lookup("gbm")
    g = make_grid(1.0, 8)
    w = sample_noise(g, 1, seed=13)
    with pytest.raises(InvalidParameterError):
        finite_difference_jacobian(spec, w, SchemeChoice(EULER), 0.0)


def _probe_linear(field, bound, seed=0):
    """(max one-sided quotient, ok) of the linear field's drift against
    bound, at 500 points uniform on [-3, 3]^d."""
    report = probe_assumptions(
        replace(field, monotone_const=bound), uniform_sampler(-3.0, 3.0, field.d), 500, seed,
    )
    return report.max_onesided, report.monotone_ok


def test_probe_linear_quadratic_bound():
    field = _linear_field(lambda t: np.array([[-1.0 + 0.5 * t]]), np.zeros(1), np.zeros((1, 1)))
    worst, ok = _probe_linear(field, bound=0.0, seed=1)
    assert ok and worst <= -0.5
    worst, ok = _probe_linear(field, bound=-0.9, seed=1)
    assert not ok


def test_probe_linear_quadratic_bound_of_a_non_normal_matrix():
    # z^T B z / |z|^2 peaks at the top eigenvalue 1/2 of (B + B^T) / 2, not
    # at the eigenvalue -1 of B; the inhomogeneity b drops out of the quotient
    field = _linear_field(
        lambda t: np.array([[-1.0, 3.0], [0.0, -1.0]]), np.ones(2), np.zeros((2, 1))
    )
    worst, ok = _probe_linear(field, bound=0.5)
    assert ok and 0.5 - 1e-4 < worst <= 0.5 + 1e-12
    worst, ok = _probe_linear(field, bound=0.49)
    assert not ok


def _diag(v):
    out = np.zeros(v.shape + v.shape[-1:])
    k = np.arange(v.shape[-1])
    out[..., k, k] = v
    return out


def _twin_ginzburg_landau(eta):
    """Two uncoupled GL components (sigma = 1) in d = m = 2, each with its own
    noise."""

    def grad_diffusion(t, h, x):
        g = np.zeros((x.shape[0], 2, 2, 2))
        g[:, 0, 0, 0] = g[:, 1, 1, 1] = 1.0
        return g

    return CoefficientField(
        2,
        2,
        # the cube as a product, as the zoo's GL writes it: numpy's x**3 calls
        # pow, whose SIMD kernel rounds differently on different CPUs
        lambda t, h, x: eta * x - x * x * x,
        lambda t, h, x: _diag(x),
        lambda t, h, x: _diag(eta - 3.0 * x**2),
        grad_diffusion,
        monotone_const=eta,
    )


@pytest.mark.parametrize("eta, x0, N", [(1.0, 3.0, 64), (3.9, 1.0, 4)])
def test_implicit_d2_twin_equals_d1_bitwise(eta, x0, N):
    # the d x d solves of Newton and of the implicit factor, fed the same
    # increments in both columns, must reproduce the d = 1 division path
    spec = zoo_lookup("ginzburg_landau", {"eta": eta, "x0": x0})
    g = make_grid(1.0, N)
    scheme = SchemeChoice(IMPLICIT)
    inc = sample_increments(g, 1, seed=5, start=0, count=16)
    one, vf1 = stored_factors(spec.field, g, inc, spec.theta0, scheme)
    two, vf2 = stored_factors(
        _twin_ginzburg_landau(eta), g, np.concatenate([inc, inc], axis=2), np.full(2, x0), scheme
    )
    for k in range(2):
        assert np.array_equal(two.values[..., k], one.values[..., 0])
    for rec1, rec2 in zip(stored_records(vf1, one), stored_records(vf2, two)):
        vf1.take(rec1)
        vf2.take(rec2)
        # dmat is batch-last (d, d, B)
        dmat1, dmat2 = vf1.dmat.transpose(2, 0, 1), vf2.dmat.transpose(2, 0, 1)
        assert np.array_equal(dmat2, _diag(np.repeat(dmat1[:, 0], 2, axis=1)))


@pytest.mark.parametrize("kind", [EULER, TAMED, IMPLICIT])
def test_variational_step_evaluates_grad_drift_once(kind):
    # the implicit factor needs grad_drift at the Newton root only, not at X_i
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 64)
    scheme = SchemeChoice(kind)
    inc = sample_increments(g, 1, seed=5, start=0, count=16)
    out = simulate_batch(spec.field, g, inc, spec.theta0, scheme)
    calls = []

    def grad_drift(t, h, x):
        calls.append(t)
        return spec.field.grad_drift(t, h, x)

    counted = replace(spec.field, grad_drift=grad_drift)
    vf = VariationalFactors(Stepper(counted, g, inc, spec.theta0, scheme))
    # the records evaluate drift and diffusion only
    for rec in stored_records(vf, out):
        vf.take(rec)
    assert len(calls) == g.N
