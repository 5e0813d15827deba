import math
import warnings

import numpy as np
import pytest

from monosde import (
    CameronMartinPath,
    DivergenceError,
    InvalidParameterError,
    cameron_martin_check,
    clipped_sup_norm,
    doleans_dade,
    gateaux_ladder,
    gronwall_shadow,
    make_grid,
    sample_noise,
    terminal_value,
    zoo_lookup,
)
from monosde.core import sample_increments
from monosde.shiftlab import _log_dd
from monosde.solver import EULER, TAMED, SchemeChoice


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
    with pytest.raises(DivergenceError, match="at step 5$"):
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


def test_gronwall_shadow_exceedance_decays():
    g = make_grid(1.0, 256)
    shadow = gronwall_shadow(
        [1.0, 0.3, 0.1, 0.03], [0.5, 0.1], g, n_paths=4096, seed=10
    )
    for j in range(2):
        col = shadow.exceedance[:, j]
        assert col[-1] < col[0] or (col[0] == 0.0 and col[-1] == 0.0)
    assert shadow.exceedance[-1, 0] <= 0.01


def test_gronwall_shadow_raises_on_divergence():
    # amplitude 50 sends the paths to NaN; NaN > delta would read as no exceedance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="at step 6$"):
            gronwall_shadow([0.1, 50.0], [0.5], make_grid(1.0, 8), 64, 3)
