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
    NoisePath,
    StatePath,
    doleans_dade,
    make_grid,
    mc_estimate,
    sample_noise,
)
from monosde.core import (
    _philox_keys,
    chunk_size,
    format_lines,
    paired_z_score,
    sample_increments,
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


@pytest.mark.parametrize(
    "T,N", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, 2.5), (1.0, math.nan), (1.0, math.inf)]
)
def test_make_grid_invalid(T, N):
    with pytest.raises(InvalidParameterError):
        make_grid(T, N)


@pytest.mark.parametrize("t", [0.3, -0.125, 1.125])
def test_index_of_rejects_a_time_off_the_grid(t):
    g = make_grid(1.0, 8)
    assert g.index_of(0.375) == 3
    with pytest.raises(InvalidParameterError, match=f"^time {t} is not a node of the grid$"):
        g.index_of(t)


@pytest.mark.parametrize("cls, rows", [(NoisePath, 8), (CameronMartinPath, 8), (StatePath, 9)])
def test_path_arrays_reject_a_wrong_shape_or_a_non_finite_entry(cls, rows):
    g = make_grid(1.0, 8)
    with pytest.raises(DimensionMismatchError, match=rf"shape \({rows + 1}, 1\) != \({rows}, 1\)$"):
        cls(g, 1, np.zeros((rows + 1, 1)))
    bad = np.zeros((rows, 1))
    bad[3, 0] = np.inf
    with pytest.raises(InvalidParameterError, match="must be finite"):
        cls(g, 1, bad)


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
    # paths 1021..1027 cross the end of a first chunk of MIN_CHUNK paths
    g = make_grid(1.0, 64)
    assert _sha256(sample_increments(g, 3, 7, 1021, 7)) == (
        "d4796f6a0eb20fa4ed5bc61994c9880f7b420e4ad0d068e96b9073ffe4278c7e"
    )
    assert _sha256(sample_increments(g, 3, 2**32 + 5, 0, 3)) == (
        "4f05943b546418732fc0bfd2ef983f476d2cd9aa6fab7998e7bbc15fd5e08bda"
    )


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64, 2**128])
@pytest.mark.parametrize("start,count", [(0, 3), (1021, 5), (2**32 - 5, 5), (2**32 - 3, 5)])
def test_vectorised_philox_keys_equal_seed_sequence(seed, start, count):
    keys = _philox_keys(seed, start, count)
    assert keys.dtype == np.uint64 and keys.shape == (count, 2)
    for k in range(count):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(start + k,))
        assert np.array_equal(keys[k], ss.generate_state(2, np.uint64))


@pytest.mark.parametrize("count", [1, 5])
def test_batch_rows_are_the_single_path_streams(count):
    # row k is numpy's own construction of the stream (11, 1022 + k); odd
    # N * m = 21 leaves Philox's 4-word buffer partly used after each path
    g = make_grid(1.0, 7)
    inc = sample_increments(g, 3, 11, 1022, count)
    for k in range(count):
        ss = np.random.SeedSequence(entropy=11, spawn_key=(1022 + k,))
        gen = np.random.Generator(np.random.Philox(ss))
        assert np.array_equal(inc[k], gen.standard_normal((7, 3)) * math.sqrt(g.dt))


@pytest.mark.parametrize(
    "seed,start,count,m",
    [(-1, 0, 2, 1), (0, -1, 2, 1), (0, 0, -1, 1), (0, 0, 2, 0)],
)
def test_bad_noise_arguments_raise_typed_errors(seed, start, count, m):
    g = make_grid(1.0, 4)
    with pytest.raises(InvalidParameterError):
        sample_increments(g, m, seed, start, count)
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
def test_doleans_dade_is_the_exponential_of_its_log(case):
    # at the grid's horizon, the only time it is taken at
    seed, factor, n_coarse, m, T = case
    w, h = _noise_and_direction(seed, factor * n_coarse, m, T)
    N = w.grid.N
    assert doleans_dade(w, CameronMartinPath(w.grid, m, np.zeros((N, m)))) == 1.0
    log_dd = 0.0
    for i in range(N):
        hdot = h.density[i]
        log_dd += float(hdot @ w.increments[i]) - 0.5 * float(hdot @ hdot) * w.grid.dt
    assert abs(math.log(doleans_dade(w, h)) - log_dd) <= 1e-12 * max(1.0, abs(log_dd))


def test_cameron_martin_path_runs_from_zero():
    g = make_grid(1.0, 10)
    h = CameronMartinPath.constant(g, 2.0)
    assert h.norm_sq() == pytest.approx(4.0)


def test_mc_estimate_basic():
    est = mc_estimate(np.array([1.0, 2.0, 3.0, 4.0]))
    assert est.mean[0] == pytest.approx(2.5)
    with pytest.raises(InvalidParameterError):
        mc_estimate(np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        MCEstimate(np.array([1.0]), np.array([-1.0]), 10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "samples",
    [[1.0, np.inf], [1.0, np.nan], [1e300, -1e300, 3e300], [1e308, 1e308]],
    ids=["inf_sample", "nan_sample", "squares_overflow", "sum_overflows"],
)
def test_mc_estimate_out_of_float_range_raises_quietly(samples):
    # it returned an inf or NaN mean or stderr, with a warning
    with pytest.raises(InvalidParameterError, match="out of floating-point range"):
        mc_estimate(np.array(samples))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "diffs, stderr",
    [([1e300, -1e300, 3e300], "inf"), ([1e-170, 3e-170], "0"), ([2.0, 2.0], "0")],
    ids=["squares_overflow", "squares_underflow", "equal"],
)
def test_paired_z_score_that_is_not_finite_raises_quietly(diffs, stderr):
    # it was 0 with an overflow warning, or inf
    with pytest.raises(InvalidParameterError, match=f"stderr {stderr}\\)$"):
        paired_z_score(np.array(diffs))


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


@pytest.mark.parametrize(
    "N, m, n_paths, workers, size",
    [
        (256, 1, 8192, 1, 2048),  # 6 MiB / (2 KiB of increments + 1 KiB)
        (256, 1, 8192, 2, 2048),
        (16, 1, 100_000, 1, 5461),
        (639, 1, 100_000, 1, 1025),
        (640, 1, 100_000, 1, 1024),  # the floor from here on
        (1024, 1, 100_000, 1, 1024),
        (128, 2, 100_000, 1, 2048),  # m multiplies the increments
        (256, 1, 3000, 2, 1500),  # a chunk per worker
        (16, 1, 100, 1, 100),
        (256, 1, 5, 4, 2),
    ],
)
def test_chunk_size_fits_the_budget_and_gives_every_worker_a_chunk(N, m, n_paths, workers, size):
    assert chunk_size(N, m, n_paths, workers) == size


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


@pytest.mark.parametrize("shifted", [False, True], ids=["variants", "shifts"])
def test_history_take_views_the_rows_it_holds(shifted):
    # a restricted history reads the whole batch's rows it stands for, also
    # when taken from another restricted one, and builds no view of its own
    g = make_grid(1.0, 8)
    inc = sample_increments(g, 2, 6, 0, 4)
    gvals = np.arange(8, dtype=float)
    shifts = np.array([0.0, 0.5, -0.25])[:, None, None] * np.linspace(0.1, 1.6, 16).reshape(8, 2)
    whole = History(g, inc, shifts=shifts) if shifted else History(g, inc, variants=3)
    assert whole.rows.tolist() == list(range(12))
    sub = whole.take(np.array([1, 4, 6, 7, 11]))
    subsub = sub.take(np.array([True, False, False, True, True]))
    assert (sub.rows.tolist(), sub.B) == ([1, 4, 6, 7, 11], 5)
    assert (subsub.rows.tolist(), subsub.B) == ([1, 7, 11], 3)
    assert sub.m == 2 and subsub.idx(0.5) == 4
    assert not {"increments", "brownian"} & (set(vars(whole)) | set(vars(sub)))
    for view in (lambda h: h.increments, lambda h: h.brownian,
                 lambda h: h.cum_ito("k", gvals)):
        for h in (subsub, sub):
            assert view(h).tobytes() == view(whole)[h.rows].tobytes()


def test_history_is_freed_without_the_cycle_collector():
    # a history holds a chunk's noise: a reference cycle would keep every
    # chunk's alive until the collector ran, which raised a greeks run's
    # peak memory by a third
    import gc
    import weakref

    g = make_grid(1.0, 8)
    gc.disable()
    try:
        whole = History(g, sample_increments(g, 1, 6, 0, 4), variants=2)
        sub = whole.take(np.array([0, 5]))
        sub.brownian
        refs = weakref.ref(whole), weakref.ref(sub)
        del whole, sub
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("lead", ["", "7,"])
def test_format_lines_matches_a_row_by_row_writer(lead):
    # a two-column block (as paths.csv at d = 2 and jacobian.csv write it)
    # with values of every magnitude, against f"{v:.17g}" lines row by row
    g = make_grid(0.7, 9)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((g.N + 1, 2)) * 10.0 ** rng.integers(-300, 300, (g.N + 1, 2))
    values[2, 1], values[3, 0], values[4, 1] = -0.0, 1e300, -1e-300
    templates = [f"{t:.17g},%.17g,%.17g\n" for t in g.nodes.tolist()]
    want = "".join(
        f"{lead}{i * g.dt:.17g},{a:.17g},{b:.17g}\n" for i, (a, b) in enumerate(values)
    )
    assert format_lines(lead, templates, values) == want
    assert format_lines(lead, templates[4:], values[4:]) == "".join(want.splitlines(True)[4:])
    assert format_lines(lead, [], values[:0]) == ""
