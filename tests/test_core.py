import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monosde import (
    CameronMartinPath,
    DimensionMismatchError,
    History,
    InvalidParameterError,
    MCEstimate,
    coarsen_noise,
    doleans_dade,
    make_grid,
    mc_estimate,
    pareto_theta_sampler,
    sample_noise,
    shift_noise,
    uniform_sampler,
)
from monosde.core import (
    _philox_keys,
    chunk_ranges,
    run_chunks,
    sample_increments,
    sample_theta,
)


def test_make_grid_nodes():
    g = make_grid(1.0, 4)
    assert np.allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(np.diff(g.nodes), g.dt, atol=1e-15)


def test_make_grid_minimal():
    g = make_grid(1.0, 1)
    assert np.allclose(g.nodes, [0.0, 1.0])


def test_make_grid_fine():
    g = make_grid(2.0, 1000)
    assert g.dt == pytest.approx(0.002)
    assert g.nodes[500] == pytest.approx(1.0)
    assert abs(g.nodes[-1] - g.T) < 1e-12


@pytest.mark.parametrize("T,N", [(0.0, 4), (-1.0, 4), (1.0, 0)])
def test_make_grid_invalid(T, N):
    with pytest.raises(InvalidParameterError):
        make_grid(T, N)


def test_sample_noise_deterministic():
    g = make_grid(1.0, 32)
    a = sample_noise(g, 2, seed=7, path_index=3)
    b = sample_noise(g, 2, seed=7, path_index=3)
    assert np.array_equal(a.increments, b.increments)
    c = sample_noise(g, 2, seed=7, path_index=4)
    assert not np.array_equal(a.increments, c.increments)


def test_sample_noise_marginals():
    # first-increment mean within 4 sqrt(dt/n) and variance within 5% of dt
    g = make_grid(0.5, 2)
    inc = sample_increments(g, 1, seed=11, start=0, count=100_000)[:, 0, 0]
    n = len(inc)
    assert abs(inc.mean()) <= 4.0 * math.sqrt(g.dt / n)
    assert abs(inc.var(ddof=1) - g.dt) <= 0.05 * g.dt


def test_sample_noise_sum_is_brownian_at_T():
    g = make_grid(2.0, 16)
    inc = sample_increments(g, 1, seed=12, start=0, count=10_000)
    w_T = inc.sum(axis=(1, 2))
    n = len(w_T)
    assert abs(w_T.mean()) <= 4.0 * math.sqrt(g.T / n)
    assert abs(w_T.var(ddof=1) - g.T) <= 4.0 * g.T * math.sqrt(2.0 / (n - 1))


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_noise_stream_bytes_are_pinned():
    # paths 1021..1027 cross a 1024-path chunk boundary
    g = make_grid(1.0, 64)
    assert _sha256(sample_increments(g, 3, 7, 1021, 7)) == (
        "d4796f6a0eb20fa4ed5bc61994c9880f7b420e4ad0d068e96b9073ffe4278c7e"
    )
    assert _sha256(sample_increments(g, 3, 2**32 + 5, 0, 3)) == (
        "4f05943b546418732fc0bfd2ef983f476d2cd9aa6fab7998e7bbc15fd5e08bda"
    )
    theta = sample_theta(uniform_sampler(0.5, 2.0), 1, 7, 1022, 5)
    assert _sha256(theta) == (
        "8111267877806bb7c969cade61b2eeb302a176e8a2ed4668a07f03152d178b61"
    )


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64, 2**128])
@pytest.mark.parametrize("start,count", [(0, 3), (1021, 5), (2**32 - 5, 5), (2**32 - 3, 5)])
@pytest.mark.parametrize("branch", [0, 1])
def test_vectorised_philox_keys_equal_seed_sequence(seed, start, count, branch):
    keys = _philox_keys(seed, start, count, branch)
    assert keys.dtype == np.uint64 and keys.shape == (count, 2)
    for k in range(count):
        spawn = (start + k,) if branch == 0 else (start + k, branch)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn)
        assert np.array_equal(keys[k], ss.generate_state(2, np.uint64))


@pytest.mark.parametrize("count", [1, 5])
def test_batch_rows_are_the_single_path_streams(count):
    # odd N * m = 21 leaves Philox's 4-word buffer partly used after each path
    g = make_grid(1.0, 7)
    inc = sample_increments(g, 3, 11, 1022, count)
    for k in range(count):
        assert np.array_equal(inc[k], sample_noise(g, 3, 11, 1022 + k).increments)


def test_theta_rows_are_the_single_path_streams():
    # a float32 draw leaves a spare half word in the generator after each path
    def sampler(gen, n):
        return gen.random((n, 1), dtype=np.float32)

    theta = sample_theta(sampler, 1, 3, 1023, 4)
    for k in range(4):
        ss = np.random.SeedSequence(entropy=3, spawn_key=(1023 + k, 1))
        assert theta[k, 0] == sampler(np.random.Generator(np.random.Philox(ss)), 1)[0, 0]


def test_theta_sampler_of_the_wrong_width_raises_a_typed_error():
    # the d = 1 Pareto sampler for d = 2 initial conditions raised a raw numpy
    # ValueError ("cannot reshape array of size 1 into shape (2,)")
    with pytest.raises(InvalidParameterError, match=r"shape \(n, d\) = \(1, 2\), got \(1, 1\)"):
        sample_theta(pareto_theta_sampler(1.5), 2, 0, 0, 3)


@pytest.mark.parametrize(
    "seed,start,count,m",
    [(-1, 0, 2, 1), (0, -1, 2, 1), (0, 0, -1, 1), (0, 0, 2, 0)],
)
def test_bad_noise_arguments_raise_typed_errors(seed, start, count, m):
    g = make_grid(1.0, 4)
    with pytest.raises(InvalidParameterError):
        sample_increments(g, m, seed, start, count)
    if m >= 1:
        with pytest.raises(InvalidParameterError):
            sample_theta(uniform_sampler(0.0, 1.0), 1, seed, start, count)
    if count >= 1:
        with pytest.raises(InvalidParameterError):
            sample_noise(g, m, seed, start)


_NOISE_CASES = st.tuples(
    st.integers(min_value=0, max_value=2**40),  # seed
    st.sampled_from([1, 2, 3, 4, 6, 8, 12]),  # factor
    st.integers(min_value=1, max_value=6),  # coarse N
    st.integers(min_value=1, max_value=3),  # m
    st.floats(min_value=0.1, max_value=5.0),  # T
)


def _noise_and_direction(seed, N, m, T):
    g = make_grid(T, N)
    w = sample_noise(g, m, seed, seed % 7)
    rng = np.random.default_rng(seed)
    return w, CameronMartinPath(g, m, rng.uniform(-3.0, 3.0, (N, m)))


@settings(max_examples=40, deadline=None, database=None)
@given(_NOISE_CASES)
def test_coarsen_noise_keeps_brownian_nodes(case):
    seed, factor, n_coarse, m, T = case
    w, _ = _noise_and_direction(seed, factor * n_coarse, m, T)
    same = coarsen_noise(w, 1)
    assert same.grid == w.grid and np.array_equal(same.increments, w.increments)
    coarse = coarsen_noise(w, factor)
    assert coarse.grid.N == n_coarse
    assert np.max(np.abs(coarse.brownian() - w.brownian()[::factor])) <= 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(_NOISE_CASES, st.floats(min_value=-4.0, max_value=4.0))
def test_shift_noise_moves_brownian_by_eps_h(case, eps):
    seed, factor, n_coarse, m, T = case
    w, h = _noise_and_direction(seed, factor * n_coarse, m, T)
    moved = shift_noise(w, h, eps).brownian() - w.brownian()
    assert np.max(np.abs(moved - eps * h.path())) <= 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(_NOISE_CASES, st.data())
def test_doleans_dade_is_the_exponential_of_its_log(case, data):
    seed, factor, n_coarse, m, T = case
    w, h = _noise_and_direction(seed, factor * n_coarse, m, T)
    N = w.grid.N
    t = data.draw(st.integers(min_value=0, max_value=N))
    assert doleans_dade(w, h, 0) == 1.0
    assert doleans_dade(w, CameronMartinPath(w.grid, m, np.zeros((N, m))), t) == 1.0
    log_dd = 0.0
    for i in range(t):
        hdot = h.density[i]
        log_dd += float(hdot @ w.increments[i]) - 0.5 * float(hdot @ hdot) * w.grid.dt
    assert abs(math.log(doleans_dade(w, h, t)) - log_dd) <= 1e-12 * max(1.0, abs(log_dd))


def test_shift_noise_identity():
    g = make_grid(1.0, 16)
    w = sample_noise(g, 1, seed=1)
    h = CameronMartinPath.constant(g, 1.5)
    assert np.array_equal(shift_noise(w, h, 0.0).increments, w.increments)


def test_shift_noise_inverse():
    g = make_grid(1.0, 16)
    w = sample_noise(g, 1, seed=1)
    h = CameronMartinPath.constant(g, 1.5)
    back = shift_noise(shift_noise(w, h, 0.7), h, -0.7)
    assert np.max(np.abs(back.increments - w.increments)) < 1e-15


def test_shift_noise_arithmetic():
    g = make_grid(1.6, 16)  # dt = 0.1
    w = sample_noise(g, 1, seed=2)
    h = CameronMartinPath.constant(g, 1.0)
    shifted = shift_noise(w, h, 2.0)
    assert np.allclose(shifted.increments - w.increments, 0.2)


def test_shift_noise_additive_in_eps():
    g = make_grid(1.0, 16)
    w = sample_noise(g, 1, seed=3)
    h = CameronMartinPath.constant(g, 0.8)
    once = shift_noise(w, h, 0.3 + 0.4)
    twice = shift_noise(shift_noise(w, h, 0.3), h, 0.4)
    assert np.max(np.abs(once.increments - twice.increments)) < 1e-15


def test_shift_noise_dimension_mismatch():
    w = sample_noise(make_grid(1.0, 16), 1, seed=1)
    h = CameronMartinPath.constant(make_grid(1.0, 8), 1.0)
    with pytest.raises(DimensionMismatchError):
        shift_noise(w, h, 1.0)


def test_cameron_martin_path_runs_from_zero():
    g = make_grid(1.0, 10)
    h = CameronMartinPath.constant(g, 2.0)
    path = h.path()
    assert path[0, 0] == 0.0
    assert path[-1, 0] == pytest.approx(2.0)
    assert h.norm_sq() == pytest.approx(4.0)


def test_coarsen_noise_sums_increments():
    g = make_grid(1.0, 16)
    w = sample_noise(g, 1, seed=5)
    c = coarsen_noise(w, 4)
    assert c.grid.N == 4
    assert np.allclose(c.increments[0], w.increments[:4].sum(axis=0))
    with pytest.raises(InvalidParameterError):
        coarsen_noise(w, 5)


def test_mc_estimate_basic():
    est = mc_estimate(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est.mean[0] == pytest.approx(2.5)
    assert est.ci95_halfwidth[0] == pytest.approx(1.96 * est.stderr[0])
    with pytest.raises(InvalidParameterError):
        mc_estimate(np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        MCEstimate(np.array([1.0]), np.array([-1.0]), 10)


def test_history_cum_ito():
    g = make_grid(1.0, 8)
    w = sample_noise(g, 1, seed=6)
    hist = History.from_path(w)
    gvals = np.arange(8, dtype=float)
    s = hist.cum_ito("k", gvals)
    manual = np.concatenate([[0.0], np.cumsum(gvals * w.increments[:, 0])])
    assert np.allclose(s[0], manual, atol=1e-15)
    assert s is hist.cum_ito("k", gvals)  # cached


def test_history_variants_view_the_tiled_paths():
    # three variants of 4 paths read what a history of the tiled noise reads
    g = make_grid(1.0, 8)
    inc = sample_increments(g, 2, 6, 0, 4)
    gvals = np.arange(8, dtype=float)
    stacked = History(g, inc, variants=3)
    tiled = History(g, np.tile(inc, (3, 1, 1)))
    assert stacked.B == tiled.B == 12
    for view in (lambda h: h.increments, lambda h: h.brownian,
                 lambda h: h.cum_ito("k", gvals)):
        assert view(stacked).tobytes() == view(tiled).tobytes()


def test_run_chunks_worker_independent():
    def work(start, count):
        return np.arange(start, start + count, dtype=float) ** 2

    a = np.concatenate(run_chunks(work, 5000, workers=1, chunk=256))
    b = np.concatenate(run_chunks(work, 5000, workers=4, chunk=256))
    assert np.array_equal(a, b)
    assert chunk_ranges(5000, 256)[-1] == (4864, 136)


def test_history_shifts_view_the_shifted_paths():
    # three noise-shifted variants of 4 paths read what a history of the
    # separately shifted noise reads
    g = make_grid(1.0, 8)
    inc = sample_increments(g, 2, 6, 0, 4)
    gvals = np.arange(8, dtype=float)
    shifts = np.array([0.0, 0.5, -0.25])[:, None, None] * np.linspace(0.1, 1.6, 16).reshape(8, 2)
    stacked = History(g, inc, shifts=shifts)
    separate = History(g, np.concatenate([inc + s for s in shifts]))
    assert stacked.B == separate.B == 12 and stacked.variants == 3
    for view in (lambda h: h.increments, lambda h: h.brownian,
                 lambda h: h.cum_ito("k", gvals)):
        assert view(stacked).tobytes() == view(separate).tobytes()
