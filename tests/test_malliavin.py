import hashlib
from dataclasses import replace

import numpy as np
import pytest

from monosde import (
    CameronMartinPath,
    InvalidParameterError,
    directional_derivative,
    eval_closed_form,
    jacobian,
    make_grid,
    malliavin_field,
    malliavin_matrix,
    representation_parts,
    sample_noise,
    zoo_lookup,
)
from monosde.core import sample_increments
from monosde.shiftlab import _ladder_samples
from monosde.solver import EULER, IMPLICIT, SCHEMES, TAMED, SchemeChoice, simulate, simulate_batch


def test_ou_field_matches_closed_form():
    kappa, sig = 1.0, 0.5
    spec = zoo_lookup("ou", {"kappa": kappa, "sigma": sig})
    g = make_grid(1.0, 1024)
    w = sample_noise(g, 1, seed=1)
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=128)
    for pos, sj in enumerate(fld.s_indices):
        ti = np.arange(sj, g.N + 1)
        exact = sig * np.exp(-kappa * (ti - sj) * g.dt)
        err = np.max(np.abs(fld.entries[pos, sj:, 0, 0] - exact))
        assert err <= 5 * kappa**2 * g.T * g.dt


def test_gbm_field_is_scaled_state():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 512)
    w = sample_noise(g, 1, seed=2)
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=64)
    x = fld.base.values[:, 0]
    for pos, sj in enumerate(fld.s_indices):
        ref = 0.2 * x[sj:]
        err = np.max(np.abs(fld.entries[pos, sj:, 0, 0] - ref) / np.abs(ref))
        assert err < 1e-12


def test_field_initialization_is_diffusion():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 256)
    w = sample_noise(g, 1, seed=3)
    fld = malliavin_field(spec, w, SchemeChoice(TAMED), s_stride=32)
    x = fld.base.values
    for pos, sj in enumerate(fld.s_indices):
        assert fld.entries[pos, sj, 0, 0] == x[sj, 0]  # sigma(x) = x for GL sigma=1


def test_field_structural_zeros():
    spec = zoo_lookup("ou")
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=4)
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=16)
    assert np.all(fld.value(32, 16) == 0.0)  # s > t
    assert np.all(fld.entries[2, :32] == 0.0)  # storage is zero before s
    with pytest.raises(InvalidParameterError):
        fld.value(17, 32)  # off-lattice s


def _ou_lattice_accessors():
    spec = zoo_lookup("ou")
    g = make_grid(1.0, 16)
    w = sample_noise(g, 1, seed=4)
    scheme = SchemeChoice(EULER)
    fld = malliavin_field(spec, w, scheme, s_stride=4)
    rep = representation_parts(jacobian(spec, w, scheme), s_stride=4)
    return fld.value, rep.predicted


@pytest.mark.parametrize("s_idx, t_idx", [(0, 17), (0, -1), (4, -3), (-4, 8), (20, 16), (3, 8)])
def test_lattice_accessors_reject_nodes_off_the_lattice(s_idx, t_idx):
    # t outside 0..N raised a raw IndexError or returned a zero matrix
    for accessor in _ou_lattice_accessors():
        with pytest.raises(InvalidParameterError):
            accessor(s_idx, t_idx)


@pytest.mark.parametrize("s_stride", [0, -2])
def test_field_rejects_a_stride_below_one(s_stride):
    spec = zoo_lookup("ou")
    w = sample_noise(make_grid(1.0, 16), 1, seed=1)
    with pytest.raises(InvalidParameterError, match="^s_stride must be >= 1$"):
        malliavin_field(spec, w, SchemeChoice(EULER), s_stride=s_stride)


def test_lattice_accessors_keep_zeros_above_the_diagonal():
    for accessor in _ou_lattice_accessors():
        assert np.all(accessor(8, 4) == 0.0)
        assert np.all(accessor(0, 16) != 0.0)


def test_representation_deterministic_coefficients():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 512)
    w = sample_noise(g, 1, seed=5)
    scheme = SchemeChoice(TAMED)
    bun = jacobian(spec, w, scheme)
    rep = representation_parts(bun, s_stride=64)
    x = bun.base.values[:, 0]
    # A(s, t) = sigma(s, X_s) for every t >= s, exactly
    for pos, sj in enumerate(rep.s_indices):
        assert np.all(rep.A[pos, sj:, 0, 0] == x[sj])
    # s = t: A(s, s) = sigma(s, X_s) exactly; J_s(s) = I within inverse tolerance
    fld = malliavin_field(spec, w, scheme, s_stride=64)
    for pos, sj in enumerate(rep.s_indices):
        pred = rep.predicted(sj, sj)[0, 0]
        got = fld.entries[pos, sj, 0, 0]
        assert abs(pred - got) <= abs(got) * 5 * g.dt


def test_representation_defect_scales_with_dt():
    spec = zoo_lookup("ginzburg_landau")
    cs = []
    for N in (512, 1024):
        g = make_grid(1.0, N)
        w = sample_noise(g, 1, seed=6)
        scheme = SchemeChoice(TAMED)
        bun = jacobian(spec, w, scheme)
        fld = malliavin_field(spec, w, scheme, s_stride=N // 8)
        rep = representation_parts(bun, s_stride=N // 8)
        worst = 0.0
        for pos, sj in enumerate(rep.s_indices):
            for ti in range(sj, g.N + 1, N // 8):
                worst = max(
                    worst,
                    abs(rep.predicted(sj, ti)[0, 0] - fld.entries[pos, ti, 0, 0]),
                )
        cs.append(worst / g.dt)
    assert cs[1] <= 2.0 * cs[0]


def test_representation_with_random_coefficients():
    # exercises the U, V integrals of A(s, t) on the explicit-solution model;
    # with stochastic forcing the two discretizations agree at O(sqrt(dt))
    spec = zoo_lookup("random_sigma_example")
    scheme = SchemeChoice(EULER)
    errs = []
    for N in (512, 2048):
        g = make_grid(1.0, N)
        w = sample_noise(g, 1, seed=7)
        bun = jacobian(spec, w, scheme)
        fld = malliavin_field(spec, w, scheme, s_stride=N // 8)
        rep = representation_parts(bun, s_stride=N // 8)
        worst = max(
            abs(fld.entries[pos, -1, 0, 0] - rep.predicted(sj, g.N)[0, 0])
            for pos, sj in enumerate(rep.s_indices)
        )
        errs.append(worst)
        assert worst <= 5.0 * np.sqrt(g.dt)
    assert errs[1] < errs[0]


_U = 0.7


def _ou_with_drift_derivative():
    """OU (kappa 1, sigma 0.5) declared random, with U(s, t) = 0.7 1{s < t}:
    M_s(t) = sigma e^{-kappa tau} + (U / kappa) (1 - e^{-kappa tau}), tau = t - s."""
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})

    def mall_drift(s_vals, t, hist, x):
        s = np.atleast_1d(np.asarray(s_vals, dtype=float))
        return np.where(s < t, _U, 0.0)[:, None, None]

    return replace(spec, field=replace(spec.field, mall_drift=mall_drift))


@pytest.mark.parametrize("N", [256, 1024, 4096])
def test_field_and_representation_match_a_nonzero_u(N):
    # no zoo model declares a U; this one forces M_s with U dt
    spec = _ou_with_drift_derivative()
    g = make_grid(1.0, N)
    w = sample_noise(g, 1, seed=7)
    scheme = SchemeChoice(EULER)
    fld = malliavin_field(spec, w, scheme, s_stride=N // 8)
    rep = representation_parts(jacobian(spec, w, scheme), s_stride=N // 8)
    for pos, sj in enumerate(fld.s_indices):
        tau = (np.arange(sj, N + 1) - sj) * g.dt
        exact = 0.5 * np.exp(-tau) + _U * (1.0 - np.exp(-tau))
        pred = np.array([rep.predicted(sj, ti)[0, 0] for ti in range(sj, N + 1)])
        # Euler is first order here: both errors are 0.70 dt at each N
        assert np.max(np.abs(fld.entries[pos, sj:, 0, 0] - exact)) <= g.dt
        assert np.max(np.abs(pred - exact)) <= g.dt


#: sha256 of the Malliavin field entries, the representation's A and D^h X
#: (h = 1) on Euler, N = 256, seed 7, s_stride 32: with a non-zero U (the OU
#: above) and with a non-zero V (the random-sigma model)
_NOISE_DERIVATIVE_PINS = {
    "ou_u": (
        _ou_with_drift_derivative,
        "debec98195b45580f1dad78fb6b34a8baeade4e3cbe8b85261fb3b620bbf28fb",
        "95471edfe5d1799ac3cdb3f648f439e271990257683836d2f1a0e83984f155c7",
        "0a4ed99e0249a07de5ace8f448f7ee26f9226ea59a6f2c085c82b58cfde94a05",
    ),
    "random_sigma": (
        lambda: zoo_lookup("random_sigma_example"),
        "e43859d41447df41cf6f2f5f68f5acfbbadf8f013ffa21f6ca8b92fe2f5845ce",
        "218349cd2598eeb553ea7ac9b53d3e00f9d9955cdd6b28995021f1414bea4c7f",
        "064caec1eca8c71e56ddc616bef20d668e3908a5d46c2b5a0b0aa7ad4a30284b",
    ),
}


@pytest.mark.parametrize("model", sorted(_NOISE_DERIVATIVE_PINS))
def test_noise_derivative_passes_are_pinned(model):
    build, *digests = _NOISE_DERIVATIVE_PINS[model]
    spec = build()
    g = make_grid(1.0, 256)
    w = sample_noise(g, 1, seed=7)
    scheme = SchemeChoice(EULER)
    outputs = (
        malliavin_field(spec, w, scheme, s_stride=32).entries,
        representation_parts(jacobian(spec, w, scheme), s_stride=32).A,
        directional_derivative(spec, w, scheme, CameronMartinPath.constant(g, 1.0)).values,
    )
    assert [hashlib.sha256(a.tobytes()).hexdigest() for a in outputs] == digests


def _recording_noise_derivatives(spec):
    """spec with a U (identically 0) and its own V that record (t, hist.B, x)
    at each call."""
    calls = []
    v = spec.field.mall_diffusion

    def U(s_vals, t, hist, x):
        calls.append((t, hist.B, x.copy()))
        return 0.0

    def V(s_vals, t, hist, x):
        calls.append((t, hist.B, x.copy()))
        return v(s_vals, t, hist, x)

    return replace(spec, field=replace(spec.field, mall_drift=U, mall_diffusion=V)), calls


@pytest.mark.parametrize("kind", SCHEMES)
def test_noise_derivatives_read_the_state_of_their_rows(kind):
    # every pass evaluates U and V on X(t) of the rows their history stands
    # for: the one path, or the base variant of a stacked ladder chunk
    spec, calls = _recording_noise_derivatives(zoo_lookup("random_sigma_example"))
    g = make_grid(1.0, 32)
    scheme = SchemeChoice(kind)
    w = sample_noise(g, 1, seed=3)
    path = simulate(spec, w, scheme).values[None]  # (1, N+1, d)
    inc = sample_increments(g, 1, 3, 0, 16)
    rows = simulate_batch(spec.field, g, inc, spec.theta0, scheme).values[0]
    h = CameronMartinPath.constant(g, 1.0)
    passes = [
        (lambda: malliavin_field(spec, w, scheme, s_stride=4), path),
        (lambda: representation_parts(jacobian(spec, w, scheme), s_stride=4), path),
        (lambda: directional_derivative(spec, w, scheme, h), path),
        (lambda: _ladder_samples(spec, g, scheme, h, np.array([0.5, 0.25]), inc), rows),
    ]
    for run, want in passes:
        calls.clear()
        run()
        assert calls
        for t, B, x in calls:
            assert B == len(x) == len(want)
            assert np.array_equal(x, want[:, g.index_of(t)])


def test_directional_zero_direction():
    spec = zoo_lookup("ginzburg_landau")
    g = make_grid(1.0, 128)
    w = sample_noise(g, 1, seed=8)
    dh = directional_derivative(spec, w, SchemeChoice(TAMED), CameronMartinPath.constant(g, 0.0))
    assert np.all(dh.values == 0.0)


def test_directional_quadrature_consistency_on_ou():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    g = make_grid(1.0, 512)
    w = sample_noise(g, 1, seed=9)
    h = CameronMartinPath.constant(g, 1.0)
    direct = directional_derivative(spec, w, SchemeChoice(EULER), h)
    stride = 8
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=stride)
    # left-point quadrature of M[s][t] hdot(s) ds over the s-lattice
    quad = np.zeros(g.N + 1)
    ds = stride * g.dt
    for pos, sj in enumerate(fld.s_indices[:-1]):
        quad[sj:] += fld.entries[pos, sj:, 0, 0] * ds
    err = np.max(np.abs(quad - direct.values[:, 0]))
    assert err <= 5 * (g.dt + ds)


def test_directional_gbm_closed_form():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 1024)
    w = sample_noise(g, 1, seed=10)
    h = CameronMartinPath.constant(g, 1.0)
    dh = directional_derivative(spec, w, SchemeChoice(EULER), h)
    x = eval_closed_form(spec, "state", w, t=1.0)[0]
    assert dh.values[-1, 0] == pytest.approx(0.2 * x * 1.0, abs=0.02)


def test_directional_random_sigma_consistency():
    # quadrature of the U,V-forced field against the direct linear SDE
    spec = zoo_lookup("random_sigma_example")
    g = make_grid(1.0, 512)
    w = sample_noise(g, 1, seed=11)
    h = CameronMartinPath.constant(g, 1.0)
    direct = directional_derivative(spec, w, SchemeChoice(EULER), h)
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=1)
    quad = np.zeros(g.N + 1)
    for pos, sj in enumerate(fld.s_indices[:-1]):
        quad[sj:] += fld.entries[pos, sj:, 0, 0] * g.dt
    assert np.max(np.abs(quad - direct.values[:, 0])) <= 10 * g.dt


def test_malliavin_matrix_zero_diffusion():
    spec = zoo_lookup("gbm", {"mu": 0.1, "sigma": 0.0})
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=12)
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=8)
    mm = malliavin_matrix(fld, 64)
    assert np.all(mm.Q == 0.0)
    assert mm.min_eigenvalue == 0.0


def test_malliavin_matrix_gbm_per_path():
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    g = make_grid(1.0, 512)
    w = sample_noise(g, 1, seed=13)
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=8)
    mm = malliavin_matrix(fld, 512)
    x_T = fld.base.values[-1, 0]
    assert mm.Q[0, 0] == pytest.approx(0.04 * x_T**2 * 1.0, rel=0.02)


def test_malliavin_matrix_ou_deterministic():
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    g = make_grid(1.0, 512)
    w = sample_noise(g, 1, seed=14)
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=8)
    mm = malliavin_matrix(fld, 512)
    exact = 0.25 * (1 - np.exp(-2.0)) / 2.0
    assert mm.Q[0, 0] == pytest.approx(exact, abs=20 * g.dt)
    assert mm.asymmetry <= 1e-12
    assert mm.min_eigenvalue >= -1e-10


def test_malliavin_matrix_requires_lattice_coverage():
    spec = zoo_lookup("ou")
    g = make_grid(1.0, 64)
    w = sample_noise(g, 1, seed=15)
    fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=16)
    with pytest.raises(InvalidParameterError):
        malliavin_matrix(fld, 40)  # not on the s-lattice


def _counting(spec, counts):
    """spec whose drift and diffusion callbacks count their calls in counts."""
    def counted(name):
        fn = getattr(spec.field, name)

        def call(t, hist, x):
            counts[name] += 1
            return fn(t, hist, x)

        return call

    return replace(spec, field=replace(
        spec.field, drift=counted("drift"), diffusion=counted("diffusion")
    ))


@pytest.mark.parametrize("stride, sigma_rows", [(8, 1), (5, 0)])
def test_field_evaluates_the_coefficients_once_per_step(stride, sigma_rows):
    # the pass reads sigma and the tamed drift from the kernel's records; only
    # the row s = t_N, when t_N is on the s-lattice, evaluates sigma again
    counts = dict(drift=0, diffusion=0)
    g = make_grid(1.0, 64)
    spec = _counting(zoo_lookup("ginzburg_landau"), counts)
    malliavin_field(spec, sample_noise(g, 1, seed=9), SchemeChoice(TAMED), s_stride=stride)
    assert counts == dict(drift=g.N, diffusion=g.N + sigma_rows)


def test_implicit_jacobian_evaluates_sigma_once_per_step():
    counts = dict(drift=0, diffusion=0)
    g = make_grid(1.0, 64)
    spec = _counting(zoo_lookup("ginzburg_landau"), counts)
    jacobian(spec, sample_noise(g, 1, seed=9), SchemeChoice(IMPLICIT))
    assert counts["diffusion"] == g.N
