import numpy as np
import pytest

from monosde import (
    History,
    InvalidParameterError,
    NoClosedFormError,
    OutOfDomainError,
    UnknownModelError,
    eval_closed_form,
    make_grid,
    probe_assumptions,
    sample_noise,
    simulate,
    uniform_sampler,
    zoo_lookup,
)
from monosde.models import ZOO_NAMES, ClosedForm, CoefficientField, step_function_values
from monosde.solver import EULER, SchemeChoice


def _hist(grid, m=1, seed=0):
    return History.from_path(sample_noise(grid, m, seed))


def test_zoo_ou_field():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    g = make_grid(1.0, 16)
    hist = _hist(g)
    x = np.array([[2.0]])
    assert spec.field.drift(0.0, hist, x)[0, 0] == pytest.approx(-2.0)
    assert spec.field.grad_drift(0.0, hist, x)[0, 0, 0] == pytest.approx(-1.0)
    assert spec.field.diffusion(0.0, hist, x)[0, 0, 0] == pytest.approx(0.5)
    # closed-form Malliavin derivative is sigma e^{-kappa (t - s)}
    w = sample_noise(g, 1, seed=1)
    val = eval_closed_form(spec, "malliavin", w, s=0.25, t=0.75)
    assert val[0, 0] == pytest.approx(0.5 * np.exp(-0.5))


def test_zoo_quintic_drift():
    spec = zoo_lookup("quintic")
    hist = _hist(make_grid(1.0, 8))
    x = np.array([[1.5]])
    assert spec.field.drift(0.0, hist, x)[0, 0] == pytest.approx(1.5 - 1.5**5)


def test_zoo_degenerate_gbm_constant_path():
    spec = zoo_lookup("gbm", {"mu": 0.0, "sigma": 0.0, "x0": 3.0})
    g = make_grid(1.0, 32)
    w = sample_noise(g, 1, seed=2)
    x = simulate(spec, g, w, scheme=SchemeChoice(EULER))
    assert np.all(x.values == 3.0)


def test_zoo_errors():
    with pytest.raises(UnknownModelError):
        zoo_lookup("nope")
    with pytest.raises(OutOfDomainError):
        zoo_lookup("wright_fisher_like", {"x0": 1.5})
    with pytest.raises(OutOfDomainError):
        zoo_lookup("ou", {"kappa": -1.0})


def test_unknown_parameter_names_the_models_parameters():
    with pytest.raises(InvalidParameterError) as exc:
        zoo_lookup("gbm", {"sigm": 0.3})
    assert str(exc.value) == "model gbm has no parameter 'sigm'; parameters: mu, sigma, x0"
    # a parameter of another model is unknown too
    with pytest.raises(InvalidParameterError, match="parameters: x0$"):
        zoo_lookup("wright_fisher_like", {"sigma": 1.0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_parameter_is_rejected(value):
    with pytest.raises(InvalidParameterError, match="mu must be a finite number"):
        zoo_lookup("gbm", {"mu": value})


# Recorded before the zoo declared its defaults in one table.
_ZOO_DEFAULTS = {
    "gbm": ({"mu": 0.05, "sigma": 0.2, "x0": 1.0}, [1.0], (-3.0, 3.0)),
    "ginzburg_landau": ({"eta": 1.0, "sigma": 1.0, "x0": 1.0}, [1.0], (-3.0, 3.0)),
    "ou": ({"kappa": 1.0, "sigma": 0.5, "x0": 1.0}, [1.0], (-3.0, 3.0)),
    "quintic": ({"sigma": 1.0, "x0": 1.0}, [1.0], (-3.0, 3.0)),
    "random_sigma_example": (
        {"g_low": 1.0, "g_high": 2.0, "g_break_frac": 0.5}, [1.0], (-3.0, 3.0)
    ),
    "verhulst": ({"lam": 1.0, "sigma": 1.0, "x0": 1.0}, [1.0], (0.0, 3.0)),
    "wright_fisher_like": ({"x0": 0.0}, [0.0], (-1.0, 1.0)),
}


def test_zoo_defaults_are_pinned():
    assert ZOO_NAMES == tuple(sorted(_ZOO_DEFAULTS))
    for name, (params, theta0, bounds) in _ZOO_DEFAULTS.items():
        spec = zoo_lookup(name)
        assert list(spec.params.items()) == list(params.items()), name
        assert spec.theta0.tolist() == theta0 and spec.probe_bounds == bounds, name
        # given values are converted with float and keep the declared order
        given = {k: str(v) for k, v in reversed(params.items())}
        assert list(zoo_lookup(name, given).params.items()) == list(params.items()), name


# (g_low, g_high, g_break_frac), s, t, D_s X(t) on seed 3, N = 16; recorded
# before the point oracle was read off the lattice oracle.
_RANDOM_SIGMA_MALLIAVIN = [
    ((1.0, 2.0, 0.5), 0.0, 0.0, 1.0),
    ((1.0, 2.0, 0.5), 0.25, 0.75, 2.899237493166688),
    ((1.0, 2.0, 0.5), 0.5, 0.5, 3.1434963698988465),
    ((1.0, 2.0, 0.5), 0.5625, 1.0, 0.8563100472370859),
    ((1.0, 2.0, 0.5), 0.9375, 1.0, 0.22805054650378717),
    ((1.0, 2.0, 0.5), 1.0, 1.0, 0.24879945085471375),
    ((0.5, -1.5, 0.25), 0.125, 0.875, 0.5178682243217236),
    ((0.5, -1.5, 0.25), 0.3125, 0.5, 1.053618705998538),
]


def test_random_sigma_closed_form_malliavin_is_pinned():
    g = make_grid(1.0, 16)
    w = sample_noise(g, 1, seed=3)
    for (low, high, frac), s, t, value in _RANDOM_SIGMA_MALLIAVIN:
        spec = zoo_lookup(
            "random_sigma_example", {"g_low": low, "g_high": high, "g_break_frac": frac}
        )
        val = eval_closed_form(spec, "malliavin", w, s=s, t=t)
        assert val.shape == (1, 1) and val[0, 0] == value, (s, t)
    # the oracle itself is zero for s > t
    inc = w.increments[None]
    assert np.array_equal(spec.closed_form.malliavin(inc, g, 10, 4), np.zeros((1, 1, 1)))
    with pytest.raises(InvalidParameterError, match="need s <= t"):
        eval_closed_form(spec, "malliavin", w, s=0.75, t=0.25)


def test_closed_form_errors_name_the_kind():
    spec = zoo_lookup("ou")
    w = sample_noise(make_grid(1.0, 8), 1, seed=1)
    with pytest.raises(InvalidParameterError, match="^unknown closed-form kind 'drift'$"):
        eval_closed_form(spec, "drift", w, t=1.0)
    spec.closed_form = ClosedForm(state=spec.closed_form.state)
    with pytest.raises(NoClosedFormError, match="^ou: no closed-form jacobian$"):
        eval_closed_form(spec, "jacobian", w, t=1.0)


def test_probe_ou_quotient():
    spec = zoo_lookup("ou", {"kappa": 1.0})
    rep = probe_assumptions(spec.field, uniform_sampler(-3, 3), 2000, seed=1)
    assert rep.max_onesided == pytest.approx(-1.0)
    assert rep.passed


def test_probe_points_have_their_own_stream():
    # branch 2 of path 0, not path 0's Brownian stream
    draws = []
    uniform = uniform_sampler(-3, 3)

    def sampler(gen, n):
        draws.append(gen.random())
        return uniform(gen, n)

    probe_assumptions(zoo_lookup("ou").field, sampler, 10, seed=3)
    seq = np.random.SeedSequence(entropy=3, spawn_key=(0, 2))
    assert draws[0] == np.random.Generator(np.random.Philox(seq)).random()


def test_probe_quintic_against_dense_scan():
    # independent oracle: maximize (x - y)(b(x) - b(y)) / (x - y)^2 on a grid
    xs = np.linspace(-3, 3, 601)
    b = xs - xs**5
    diff_x, diff_b = np.subtract.outer(xs, xs), np.subtract.outer(b, b)
    mask = np.abs(diff_x) > 1e-12
    scan_max = np.max(diff_x[mask] * diff_b[mask] / diff_x[mask] ** 2)
    assert scan_max <= 1.0 + 1e-9

    spec = zoo_lookup("quintic")
    rep = probe_assumptions(spec.field, uniform_sampler(-3, 3), 2000, seed=2)
    assert rep.max_onesided <= 1.0 + 1e-9
    assert rep.passed


def test_probe_detects_wrong_constant():
    # gbm with mu = 2 has one-sided quotient exactly 2: declaring 1 must fail
    spec = zoo_lookup("gbm", {"mu": 2.0, "sigma": 0.2})
    field = CoefficientField(
        d=1,
        m=1,
        drift=spec.field.drift,
        diffusion=spec.field.diffusion,
        grad_drift=spec.field.grad_drift,
        grad_diffusion=spec.field.grad_diffusion,
        deterministic=True,
        monotone_const=1.0,
        lip_diffusion=0.2,
    )
    rep = probe_assumptions(field, uniform_sampler(-3, 3), 500, seed=3)
    assert rep.max_onesided == pytest.approx(2.0)
    assert not rep.monotone_ok


@pytest.mark.parametrize(
    "name,params",
    [
        ("gbm", {"mu": 0.05, "sigma": 0.2}),
        ("ou", {"kappa": 1.0, "sigma": 0.5}),
        ("ginzburg_landau", {}),
        ("verhulst", {}),
        ("quintic", {}),
        ("wright_fisher_like", {}),
        ("random_sigma_example", {}),
    ],
)
def test_probe_every_zoo_model(name, params):
    spec = zoo_lookup(name, params)
    lo, hi = spec.probe_bounds
    rep = probe_assumptions(spec.field, uniform_sampler(lo, hi), 1000, seed=4)
    assert rep.passed, (name, rep)


def test_deterministic_fields_ignore_history():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 16)
    h1, h2 = _hist(g, seed=1), _hist(g, seed=2)
    x = np.array([[0.7], [-1.2]])
    assert np.array_equal(
        spec.field.drift(0.5, h1, x), spec.field.drift(0.5, h2, x)
    )
    assert np.array_equal(
        spec.field.diffusion(0.5, h1, x), spec.field.diffusion(0.5, h2, x)
    )


def test_random_sigma_v_matches_step_function():
    spec = zoo_lookup("random_sigma_example")
    g = make_grid(1.0, 64)
    hist = _hist(g, seed=5)
    g_vals = step_function_values(g, 1.0, 2.0, 0.5)
    s = g.left_times
    v = np.asarray(spec.field.mall_diffusion(s, 0.75, hist)).reshape(-1)
    expected = np.where(s < 0.75, g_vals, 0.0)
    assert np.array_equal(v, expected)


def test_uv_zero_for_s_greater_than_t():
    spec = zoo_lookup("random_sigma_example")
    g = make_grid(1.0, 64)
    hist = _hist(g, seed=6)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(0, 1)
        s = np.array([t + rng.uniform(0.001, 0.2)])
        assert np.all(np.asarray(spec.field.mall_diffusion(s, t, hist)) == 0.0)
        assert np.all(np.asarray(spec.field.mall_drift(s, t, hist)) == 0.0)


def test_gbm_closed_form_vs_fine_simulation():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 2**12)
    w = sample_noise(g, 1, seed=7)
    closed = eval_closed_form(spec, "state", w, t=1.0)[0]
    numeric = simulate(spec, g, w, scheme=SchemeChoice(EULER)).terminal[0]
    assert abs(closed - numeric) < 0.01  # strong error ~ sqrt(dt)


def test_ou_malliavin_closed_vs_numeric():
    from monosde import malliavin_field

    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    g = make_grid(1.0, 512)
    w = sample_noise(g, 1, seed=8)
    fld = malliavin_field(spec, g, w, SchemeChoice(EULER), s_stride=64)
    for pos, sj in enumerate(fld.s_indices[:-1]):
        closed = eval_closed_form(spec, "malliavin", w, s=sj * g.dt, t=1.0)
        assert abs(fld.entries[pos, -1, 0, 0] - closed[0, 0]) < 5 * g.dt


def test_random_sigma_with_flat_g_reduces_to_gbm():
    flat = zoo_lookup("random_sigma_example", {"g_low": 0.0, "g_high": 0.0})
    gbm = zoo_lookup("gbm", {"mu": 0.0, "sigma": 1.0, "x0": 1.0})
    g = make_grid(1.0, 256)
    w = sample_noise(g, 1, seed=9)
    a = eval_closed_form(flat, "state", w, t=1.0)
    b = eval_closed_form(gbm, "state", w, t=1.0)
    assert a[0] == pytest.approx(b[0], rel=1e-12)


def test_eval_closed_form_errors():
    spec = zoo_lookup("ginzburg_landau")
    w = sample_noise(make_grid(1.0, 8), 1, seed=1)
    with pytest.raises(NoClosedFormError):
        eval_closed_form(spec, "state", w, t=1.0)
    spec2 = zoo_lookup("ou")
    with pytest.raises(InvalidParameterError):
        eval_closed_form(spec2, "malliavin", w, s=0.75, t=0.25)


def test_wright_fisher_stays_near_unit_interval():
    spec = zoo_lookup("wright_fisher_like", {"x0": 0.5})
    g = make_grid(1.0, 512)
    for p in range(4):
        w = sample_noise(g, 1, seed=20, path_index=p)
        x = simulate(spec, g, w, scheme=SchemeChoice(EULER))
        assert np.max(np.abs(x.values)) <= 1.0 + 0.05
