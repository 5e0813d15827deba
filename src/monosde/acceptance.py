"""The shipped verification suite: one callable per acceptance criterion,
each returning a structured pass/fail result at its stated tolerance.

Every check is deterministic (fixed seeds, fixed chunking) so repeated runs
produce identical reports.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .core import CameronMartinPath, make_grid, sample_increments, sample_noise
from .models import random_sigma_malliavin_lattice, random_sigma_parts, zoo_lookup
from .solver import (
    EULER,
    IMPLICIT,
    TAMED,
    SchemeChoice,
    Stepper,
    run_paths,
    simulate_batch,
    stability_ratio,
)
from .variational import _jacobian_arrays, gateaux_direction, jacobian
from .malliavin import _field_batch, malliavin_field
from .shiftlab import _log_dd, cameron_martin_check, clipped_sup_norm, gateaux_ladder
from .greeks import (
    BELConfig,
    bel_fd_gradients,
    bel_gradient,
    constant_weight,
    identity_payoff,
    linear_weight,
    tanh_payoff,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _fit_constants(errs, dts):
    """Per-resolution fitted constants err / dt and their max/min ratio."""
    c = np.asarray(errs) / np.asarray(dts)
    return c, float(c.max() / c.min())


# ---------------------------------------------------------------------------
# 1. Closed-form Malliavin oracle (OU)
# ---------------------------------------------------------------------------


def criterion_01(workers: int = 1) -> CriterionResult:
    kappa, sig, T = 1.0, 0.5, 1.0
    spec = zoo_lookup("ou", {"kappa": kappa, "sigma": sig})
    errs = {}
    for N in (2**11, 2**12):
        grid = make_grid(T, N)
        w = sample_noise(grid, 1, seed=101, path_index=0)
        fld = malliavin_field(spec, w, SchemeChoice(EULER), s_stride=N // 512)
        worst = 0.0
        for pos, sj in enumerate(fld.s_indices):
            ti = np.arange(sj, N + 1)
            exact = sig * np.exp(-kappa * (ti - sj) * grid.dt)
            worst = max(worst, float(np.max(np.abs(fld.entries[pos, sj:, 0, 0] - exact))))
        errs[N] = worst
    dt = T / 2**12
    bound = 5.0 * kappa**2 * T * dt
    order = math.log2(errs[2**11] / errs[2**12])
    ok = errs[2**12] <= bound and order >= 0.9
    return CriterionResult(
        1,
        "ou_malliavin_closed_form",
        ok,
        f"max_err={errs[2**12]:.3e} bound={bound:.3e} order={order:.2f}",
    )


# ---------------------------------------------------------------------------
# 2. Exact recursion identities (GBM, explicit Euler)
# ---------------------------------------------------------------------------


def criterion_02(workers: int = 1) -> CriterionResult:
    x0 = 1.3
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2, "x0": x0})
    grid = make_grid(1.0, 2**10)
    scheme = SchemeChoice(EULER)
    worst = 0.0
    for p in range(4):
        w = sample_noise(grid, 1, seed=102, path_index=p)
        bun = jacobian(spec, w, scheme)
        x = bun.base.values[:, 0]
        worst = max(
            worst,
            float(np.max(np.abs(bun.J[:, 0, 0] - x / x0) / np.abs(x / x0))),
        )
        fld = malliavin_field(spec, w, scheme, s_stride=64)
        for pos, sj in enumerate(fld.s_indices):
            tail = fld.entries[pos, sj:, 0, 0]
            ref = 0.2 * x[sj:]
            worst = max(worst, float(np.max(np.abs(tail - ref) / np.abs(ref))))
        f = gateaux_direction(spec, w, scheme, np.array([2.0]))
        ref = bun.J[:, 0, 0] * 2.0
        worst = max(worst, float(np.max(np.abs(f.values[:, 0] - ref) / np.abs(ref))))
    ok = worst <= 1e-12
    return CriterionResult(
        2, "gbm_exact_recursions", ok, f"max_rel_err={worst:.3e} tol=1e-12"
    )


# ---------------------------------------------------------------------------
# 3. Inverse and Wronskian constants (Ginzburg-Landau, tamed)
# ---------------------------------------------------------------------------


def criterion_03(workers: int = 1) -> CriterionResult:
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0})
    scheme = SchemeChoice(TAMED)
    n_paths = 16
    inv_err, wro_err, dts = [], [], []
    positive = True
    for N in (2**10, 2**11, 2**12):
        grid = make_grid(1.0, N)
        inc = sample_increments(grid, 1, seed=103, start=0, count=n_paths)
        J, K, D = _jacobian_arrays(Stepper(spec.field, grid, inc, spec.theta0, scheme))
        positive &= bool(np.all(np.isfinite(D)) and np.all(D > 0.0))
        defect = np.abs(K[:, :, 0, 0] * J[:, :, 0, 0] - 1.0)
        inv_err.append(float(np.mean(np.max(defect, axis=1))))
        wdef = np.abs(J[:, :, 0, 0] - D) / np.abs(D)
        wro_err.append(float(np.mean(np.max(wdef, axis=1))))
        dts.append(grid.dt)
    c_inv, r_inv = _fit_constants(inv_err, dts)
    c_wro, r_wro = _fit_constants(wro_err, dts)
    ok = r_inv <= 2.0 and r_wro <= 2.0 and positive
    return CriterionResult(
        3,
        "gl_inverse_and_wronskian",
        ok,
        f"C_inv={c_inv[0]:.2f}/{c_inv[1]:.2f}/{c_inv[2]:.2f} ratio={r_inv:.2f} "
        f"C_wron={c_wro[0]:.2f}/{c_wro[1]:.2f}/{c_wro[2]:.2f} ratio={r_wro:.2f} "
        f"positive={positive}",
    )


# ---------------------------------------------------------------------------
# 4. Representation formula (Ginzburg-Landau)
# ---------------------------------------------------------------------------


def criterion_04(workers: int = 1) -> CriterionResult:
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0})
    scheme = SchemeChoice(TAMED)
    n_paths = 8
    errs, dts = [], []
    for N in (2**10, 2**11, 2**12):
        grid = make_grid(1.0, N)
        stride = N // 64
        s_idx = np.arange(0, N + 1, stride)
        inc = sample_increments(grid, 1, seed=104, start=0, count=n_paths)
        J, K, _ = _jacobian_arrays(Stepper(spec.field, grid, inc, spec.theta0, scheme))
        fld = _field_batch(
            out=Stepper(spec.field, grid, inc, spec.theta0, scheme), s_idx=s_idx, t_keep=s_idx
        )
        # deterministic coefficients: A(s, t) = sigma(s, X_s) exactly, the
        # field's value at t = s
        worst = np.zeros(n_paths)
        for pos, sj in enumerate(s_idx):
            sig = fld[:, pos, pos, 0, 0]
            pred = J[:, s_idx[pos:], 0, 0] * K[:, sj, 0, 0][:, None] * sig[:, None]
            got = fld[:, pos, pos:, 0, 0]
            worst = np.maximum(worst, np.max(np.abs(got - pred), axis=1))
        errs.append(float(np.mean(worst)))
        dts.append(grid.dt)
    c, ratio = _fit_constants(errs, dts)
    ok = ratio <= 2.0
    return CriterionResult(
        4,
        "gl_representation_formula",
        ok,
        f"C={c[0]:.2f}/{c[1]:.2f}/{c[2]:.2f} ratio={ratio:.2f}",
    )


# ---------------------------------------------------------------------------
# 5. Explicit-solution example: strong order and the s-discontinuity
# ---------------------------------------------------------------------------


def criterion_05(workers: int = 1) -> CriterionResult:
    spec = zoo_lookup("random_sigma_example")
    scheme = SchemeChoice(EULER)
    n_paths = 1000
    T = 1.0
    n_fixed = 32  # physical lattice at multiples of T / 32
    ns = (2**8, 2**9, 2**10, 2**11)
    n_fine = ns[-1]
    grid_fine = make_grid(T, n_fine)

    mean_errs = []
    for N in ns:
        grid = make_grid(T, N)
        factor = n_fine // N
        stride = N // n_fixed
        fixed = np.arange(0, N + 1, stride)
        jump_rows = np.array([N // 2 - 1])  # s = T/2 - dt, left of the g-step
        s_idx = np.unique(np.concatenate([fixed, jump_rows]))
        g_vals = spec.g_func(grid)

        def chunk(inc, start):
            inc = inc.reshape(len(inc), N, factor, 1).sum(axis=2)
            run = Stepper(spec.field, grid, inc, spec.theta0, scheme)
            fld = _field_batch(out=run, s_idx=s_idx, t_keep=fixed)
            closed = random_sigma_malliavin_lattice(inc, grid, g_vals, s_idx, fixed)
            diff = np.abs(fld[..., 0, 0] - closed)
            err = np.max(diff, axis=(1, 2))
            # jump in s -> D_s X(T) across the step of g, against the pure-jump oracle
            pos_left = int(np.searchsorted(s_idx, N // 2 - 1))
            pos_right = int(np.searchsorted(s_idx, N // 2))
            njump = fld[:, pos_right, -1, 0, 0] - fld[:, pos_left, -1, 0, 0]
            w, e, _, gw, s_cum = random_sigma_parts(inc, grid, g_vals)
            sj = N // 2
            js = np.exp((w[:, -1] - w[:, sj]) - 0.5 * (T - sj * grid.dt))
            ojump = (g_vals[sj] - g_vals[sj - 1]) * js * (
                (s_cum[:, -1] - s_cum[:, sj]) / e[:, sj]
            )
            return err, njump, ojump

        # every resolution coarsens the same fine-grid noise
        errs, jump_num, jump_oracle = run_paths(
            chunk, grid_fine, 1, 105, n_paths, workers
        )
        mean_errs.append(float(errs.mean()))

    dts = [T / N for N in ns]
    slope = np.polyfit(np.log2(dts), np.log2(mean_errs), 1)[0]
    jump_rel = float(
        np.mean(np.abs(jump_num - jump_oracle)) / np.mean(np.abs(jump_oracle))
    )
    ok = 0.35 <= slope <= 0.65 and jump_rel <= 0.10
    return CriterionResult(
        5,
        "random_sigma_strong_order_and_jump",
        ok,
        f"order={slope:.3f} in [0.35,0.65]; jump_rel_err={jump_rel:.3f} tol=0.10",
    )


# ---------------------------------------------------------------------------
# 6. Cameron-Martin identity and Doleans-Dade martingale
# ---------------------------------------------------------------------------


def criterion_06(workers: int = 1) -> CriterionResult:
    spec = zoo_lookup("ou", {"kappa": 1.0, "sigma": 0.5})
    grid = make_grid(1.0, 2**10)
    h = CameronMartinPath.constant(grid, 0.5)
    rep = cameron_martin_check(
        spec, grid, SchemeChoice(EULER), h, clipped_sup_norm(10.0),
        n_paths=10_000, seed=106, workers=workers,
    )

    dd = run_paths(
        lambda inc, start: np.exp(_log_dd(inc, h, grid.N)), grid, 1, 1066, 10_000, workers
    )
    dd_z = abs(dd.mean() - 1.0) / (dd.std(ddof=1) / math.sqrt(len(dd)))
    ok = rep.z_score <= 3.0 and dd_z <= 3.0
    return CriterionResult(
        6,
        "cameron_martin_and_dd_martingale",
        ok,
        f"cm_z={rep.z_score:.2f} dd_z={dd_z:.2f} (tol 3)",
    )


# ---------------------------------------------------------------------------
# 7. Gateaux difference-quotient ladder
# ---------------------------------------------------------------------------


def _ladder_check(lad):
    mono = True
    for a in range(len(lad.epsilons) - 1):
        slack = 2.0 * math.hypot(lad.stderr[a], lad.stderr[a + 1])
        if lad.mean_error[a + 1] > lad.mean_error[a] + slack:
            mono = False
    j = int(np.where(lad.deltas == 1e-2)[0][0])
    p_large, p_small = lad.exceedance[0, j], lad.exceedance[-1, j]
    # strict decrease; a ladder already converged at every rung (all-zero
    # exceedance) counts as converged
    exceed_ok = p_small < p_large or (p_large == 0.0 and p_small == 0.0)
    return mono, exceed_ok, p_large, p_small


def criterion_07(workers: int = 1) -> CriterionResult:
    grid = make_grid(1.0, 2**10)
    eps = [2.0**-k for k in range(1, 8)]
    deltas = [1e-1, 1e-2, 1e-3]
    h = CameronMartinPath.constant(grid, 1.0)
    details = []
    ok = True
    for name in ("ou", "ginzburg_landau"):
        spec = zoo_lookup(name)
        lad = gateaux_ladder(
            spec, grid, SchemeChoice(TAMED), h, eps, deltas,
            n_paths=8192, seed=107, workers=workers,
        )
        mono, exceed_ok, p_large, p_small = _ladder_check(lad)
        ok &= mono and exceed_ok
        details.append(
            f"{name}: mono={mono} P[large]={p_large:.3f} P[small]={p_small:.3f}"
        )
    return CriterionResult(7, "gateaux_ladder", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Bismut-Elworthy-Li versus oracles
# ---------------------------------------------------------------------------


def criterion_08(workers: int = 1) -> CriterionResult:
    # GBM delta against e^{mu T}
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    grid = make_grid(1.0, 2**8)
    bel = bel_gradient(
        spec, grid, SchemeChoice(EULER), BELConfig(identity_payoff(), grid.N),
        n_paths=100_000, seed=108, workers=workers,
    )
    target = math.exp(0.05)
    z_gbm = abs(bel.estimate.mean[0] - target) / bel.estimate.stderr[0]

    # BEL vs CRN finite difference on Ginzburg-Landau with tanh payoff
    spec_gl = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0})
    grid_gl = make_grid(1.0, 2**10)
    rb, rf = bel_fd_gradients(
        spec_gl, grid_gl, SchemeChoice(TAMED), BELConfig(tanh_payoff(), grid_gl.N),
        eps=1e-3, n_paths=20_000, seed=1088, workers=workers,
    )
    comb = math.hypot(rb.estimate.stderr[0], rf.estimate.stderr[0])
    z_gl = abs(rb.estimate.mean[0] - rf.estimate.mean[0]) / comb

    # weight invariance across two admissible weights (same noise)
    wa = bel_gradient(
        spec, grid, SchemeChoice(EULER), BELConfig(identity_payoff(), grid.N, constant_weight()),
        n_paths=50_000, seed=108, workers=workers,
    )
    wb = bel_gradient(
        spec, grid, SchemeChoice(EULER), BELConfig(identity_payoff(), grid.N, linear_weight()),
        n_paths=50_000, seed=108, workers=workers,
    )
    comb_w = math.hypot(wa.estimate.stderr[0], wb.estimate.stderr[0])
    z_w = abs(wa.estimate.mean[0] - wb.estimate.mean[0]) / comb_w

    ok = z_gbm <= 3.0 and z_gl <= 3.0 and z_w <= 1.96
    return CriterionResult(
        8,
        "bel_oracles_and_weight_invariance",
        ok,
        f"z_gbm={z_gbm:.2f} z_gl_vs_fd={z_gl:.2f} z_weights={z_w:.2f}",
    )


# ---------------------------------------------------------------------------
# 9. Taming necessity
# ---------------------------------------------------------------------------


def criterion_09(workers: int = 1) -> CriterionResult:
    # theta = 10 and N = 2^6 are pinned; T = 2 puts the first explicit-Euler
    # step past the divergence threshold theta^2 dt > 2 (at T = 1 the step
    # lands inside the basin of attraction and no blow-up occurs).
    spec = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0, "x0": 10.0})
    grid = make_grid(2.0, 2**6)
    counts = {}
    for kind in (EULER, TAMED, IMPLICIT):
        def chunk(inc, start):
            out = simulate_batch(spec.field, grid, inc, spec.theta0, SchemeChoice(kind))
            return out.diverged

        counts[kind] = int(run_paths(chunk, grid, 1, 109, 1000, workers).sum())
    ok = counts[EULER] >= 10 and counts[TAMED] == 0 and counts[IMPLICIT] == 0
    return CriterionResult(
        9,
        "taming_necessity",
        ok,
        f"diverged euler={counts[EULER]}/1000 tamed={counts[TAMED]} "
        f"implicit={counts[IMPLICIT]}",
    )


# ---------------------------------------------------------------------------
# 10. Stochastic stability shadow
# ---------------------------------------------------------------------------


def criterion_10(workers: int = 1) -> CriterionResult:
    gaps = (1e-1, 1e-2, 1e-3)
    grid = make_grid(1.0, 2**9)
    spec = zoo_lookup("gbm", {"mu": 0.05, "sigma": 0.2})
    ratios = [
        stability_ratio(
            spec, grid, SchemeChoice(EULER), np.array([1.0]), np.array([1.0 + g]),
            p=2.0, n_paths=4096, seed=110, workers=workers,
        )
        for g in gaps
    ]
    means = np.array([r.mean[0] for r in ratios])
    spread = float(means.max() / means.min() - 1.0)
    gbm_ok = spread <= 0.01

    spec_gl = zoo_lookup("ginzburg_landau", {"eta": 1.0, "sigma": 1.0})
    rg = [
        stability_ratio(
            spec_gl, grid, SchemeChoice(TAMED), np.array([1.0]), np.array([1.0 + g]),
            p=2.0, n_paths=4096, seed=110, workers=workers,
        )
        for g in gaps
    ]
    # bounded means the ratio converges as the gap shrinks: any growth must
    # have ceased (within noise) by the final rung of the ladder
    grow = rg[-1].mean[0] - rg[-2].mean[0]
    slack = 2.0 * math.hypot(rg[-2].stderr[0], rg[-1].stderr[0])
    gl_ok = grow <= slack
    ok = gbm_ok and gl_ok
    vals = "/".join(f"{r.mean[0]:.4f}" for r in rg)
    return CriterionResult(
        10,
        "stability_ratio",
        ok,
        f"gbm_spread={spread:.2e} (tol 1e-2); gl_ratios={vals} "
        f"final_growth={grow:.4f} slack={slack:.4f}",
    )


# ---------------------------------------------------------------------------
# 11. Determinism across reruns and worker counts
# ---------------------------------------------------------------------------


_DETERMINISM_CONFIGS = {
    "simulate": (
        "schema_version = 1\nexperiment = simulate\nmodel = gbm\n"
        "model.mu = 0.05\nmodel.sigma = 0.2\ngrid.T = 1\ngrid.N = 1024\n"
        "scheme = euler_maruyama\nseed = 42\nn_paths = 1\n"
    ),
    "jacobian": (
        "schema_version = 1\nexperiment = jacobian\nmodel = ginzburg_landau\n"
        "grid.T = 1\ngrid.N = 512\nscheme = tamed_euler\nseed = 42\n"
    ),
    "malliavin": (
        "schema_version = 1\nexperiment = malliavin\nmodel = ou\n"
        "model.kappa = 1\nmodel.sigma = 0.5\ngrid.T = 1\ngrid.N = 256\n"
        "scheme = euler_maruyama\nseed = 42\nmalliavin.s_stride = 32\n"
    ),
    "ladder": (
        "schema_version = 1\nexperiment = ladder\nmodel = ou\n"
        "grid.T = 1\ngrid.N = 256\nscheme = tamed_euler\nseed = 42\n"
        "n_paths = 2048\nladder.epsilons = 0.5,0.25,0.125\n"
        "ladder.deltas = 0.1,0.01\nladder.hdot = 1\n"
    ),
    "cameron-martin": (
        "schema_version = 1\nexperiment = cameron-martin\nmodel = ou\n"
        "grid.T = 1\ngrid.N = 256\nscheme = euler_maruyama\nseed = 42\n"
        "n_paths = 2048\ncm.hdot = 0.5\ncm.functional = clipped_sup\ncm.clip = 10\n"
    ),
    "greeks": (
        "schema_version = 1\nexperiment = greeks\nmodel = gbm\n"
        "model.mu = 0.05\nmodel.sigma = 0.2\ngrid.T = 1\ngrid.N = 128\n"
        "scheme = euler_maruyama\nseed = 42\nn_paths = 4096\n"
        "greeks.payoff = identity\ngreeks.fd_eps = 0.001\n"
    ),
    "verify": (
        "schema_version = 1\nexperiment = verify\nmodel = ou\n"
        "grid.T = 1\ngrid.N = 64\nverify.criteria = 2\n"
    ),
}


def _artifact_bytes(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def criterion_11(workers: int = 1) -> CriterionResult:
    from .cli import parse_config, run

    failures = []
    for subcommand, text in _DETERMINISM_CONFIGS.items():
        cfg, errors = parse_config(text)
        assert not errors, errors
        blobs = []
        for wk in (1, 1, 4):
            with tempfile.TemporaryDirectory() as tmp:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = run(cfg, tmp, workers=wk)
                if code not in (0,):
                    failures.append(f"{subcommand}: exit {code}")
                blobs.append(_artifact_bytes(tmp))
        if not (blobs[0] == blobs[1] == blobs[2]):
            failures.append(f"{subcommand}: artifacts differ across reruns/workers")
    ok = not failures
    detail = "all subcommands byte-identical (workers 1 and 4)" if ok else "; ".join(failures)
    return CriterionResult(11, "determinism", ok, detail)


# ---------------------------------------------------------------------------


_CRITERIA = {
    1: criterion_01,
    2: criterion_02,
    3: criterion_03,
    4: criterion_04,
    5: criterion_05,
    6: criterion_06,
    7: criterion_07,
    8: criterion_08,
    9: criterion_09,
    10: criterion_10,
    11: criterion_11,
}


def run_criteria(numbers=None, workers: int = 1):
    """Run the selected (default: all) acceptance criteria in order."""
    selected = sorted(numbers) if numbers else sorted(_CRITERIA)
    return [_CRITERIA[n](workers=workers) for n in selected]
