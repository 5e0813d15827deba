import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import monosde
import monosde.cli as cli
from monosde import errors
from monosde.cli import emit_config, main, parse_config, run
from monosde.models import zoo_lookup
from test_solver import _LINUX_ONLY, _assert_no_child, _second_fork_fails


GOOD = """
schema_version = 1
experiment = simulate
model = gbm
model.mu = 0.05
model.sigma = 0.2
grid.T = 1
grid.N = 64
scheme = euler_maruyama
seed = 42
n_paths = 2
"""


def test_parse_empty_lists_required_fields():
    cfg, errors = parse_config("")
    assert cfg is None
    joined = " ".join(errors)
    for key in ("schema_version", "experiment", "model", "grid.T", "grid.N"):
        assert key in joined


def test_parse_negative_horizon():
    _, errors = parse_config(GOOD.replace("grid.T = 1", "grid.T = -1"))
    assert any("grid.T must be > 0" in e for e in errors)


def test_parse_unknown_model_names_zoo():
    _, errors = parse_config(GOOD.replace("model = gbm", "model = heston"))
    assert any("heston" in e and "gbm" in e for e in errors)


def test_parse_unknown_key_rejected():
    _, errors = parse_config(GOOD + "grid.M = 3\n")
    assert any("unknown key" in e for e in errors)


def test_parse_reports_all_errors_at_once():
    text = GOOD.replace("grid.T = 1", "grid.T = -1").replace(
        "scheme = euler_maruyama", "scheme = milstein"
    )
    _, errors = parse_config(text)
    assert len(errors) >= 2


def test_parse_bad_epsilons():
    _, errors = parse_config(
        GOOD.replace("experiment = simulate", "experiment = ladder")
        + "ladder.epsilons = 0.1,0.5\n"
    )
    assert any("epsilons" in e for e in errors)


def test_config_round_trip():
    cfg, errors = parse_config(GOOD)
    assert not errors
    cfg2, errors2 = parse_config(emit_config(cfg))
    assert not errors2
    assert cfg == cfg2


def test_simulate_byte_identical_reruns(tmp_path):
    cfg, _ = parse_config(GOOD)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(cfg, str(out1)) == 0
    assert run(cfg, str(out2)) == 0
    for name in ("paths.csv", "simulate.meta"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_workers_do_not_change_output(tmp_path):
    cfg, _ = parse_config(GOOD)
    out1, out2 = tmp_path / "w1", tmp_path / "w4"
    assert run(cfg, str(out1), workers=1) == 0
    assert run(cfg, str(out2), workers=4) == 0
    assert (out1 / "paths.csv").read_bytes() == (out2 / "paths.csv").read_bytes()


def test_main_end_to_end(tmp_path):
    conf = tmp_path / "sim.conf"
    conf.write_text(GOOD)
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(conf), "--out", str(out)])
    assert code == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,t,x0"
    assert len(lines) == 1 + 2 * 65  # header + n_paths * (N + 1)
    # sidecar echoes the validated config
    meta = (out / "simulate.meta").read_text()
    cfg2, errs = parse_config("\n".join(meta.splitlines()[1:]))
    assert not errs and cfg2.seed == 42


def test_main_seed_override(tmp_path):
    conf = tmp_path / "sim.conf"
    conf.write_text(GOOD)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(conf), "--out", str(a), "--seed", "7"])
    main(["simulate", "--config", str(conf), "--out", str(b)])
    assert (a / "paths.csv").read_bytes() != (b / "paths.csv").read_bytes()


def test_main_subcommand_experiment_mismatch(tmp_path):
    conf = tmp_path / "sim.conf"
    conf.write_text(GOOD)
    assert main(["jacobian", "--config", str(conf)]) == 1


def test_main_invalid_config_exit_code(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text(GOOD.replace("grid.T = 1", "grid.T = 0"))
    assert main(["simulate", "--config", str(conf)]) == 1


def test_ladder_csv_rows(tmp_path):
    text = """
schema_version = 1
experiment = ladder
model = ou
grid.T = 1
grid.N = 64
scheme = tamed_euler
seed = 1
n_paths = 256
ladder.epsilons = 0.5,0.25,0.125
ladder.deltas = 0.1,0.01
ladder.hdot = 1
"""
    cfg, errors = parse_config(text)
    assert not errors
    out = tmp_path / "lad"
    assert run(cfg, str(out)) == 0
    lines = (out / "ladder.csv").read_text().splitlines()
    assert lines[0] == "epsilon,mean_error,stderr,delta,exceedance_prob,diverged_count"
    assert len(lines) == 1 + 3 * 2  # one row per (epsilon, delta)


def test_greeks_csv_has_both_methods(tmp_path):
    text = """
schema_version = 1
experiment = greeks
model = gbm
model.mu = 0.05
model.sigma = 0.2
grid.T = 1
grid.N = 32
scheme = euler_maruyama
seed = 1
n_paths = 512
"""
    cfg, errors = parse_config(text)
    assert not errors
    out = tmp_path / "grk"
    assert run(cfg, str(out)) == 0
    lines = (out / "greeks.csv").read_text().splitlines()
    methods = [ln.split(",")[0] for ln in lines[1:]]
    assert methods == ["bel", "fd"]


def test_greeks_workers_do_not_change_output(tmp_path):
    cfg, problems = parse_config(
        "schema_version = 1\nexperiment = greeks\nmodel = ginzburg_landau\n"
        "grid.T = 1\ngrid.N = 32\nscheme = tamed_euler\nseed = 5\n"
        "n_paths = 2500\ngreeks.payoff = tanh\n"
    )
    assert not problems
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run(cfg, str(out1), workers=1) == 0
    assert run(cfg, str(out2), workers=2) == 0
    assert (out1 / "greeks.csv").read_bytes() == (out2 / "greeks.csv").read_bytes()


def test_divergent_run_exits_2(tmp_path):
    text = """
schema_version = 1
experiment = simulate
model = ginzburg_landau
model.x0 = 10
grid.T = 2
grid.N = 64
scheme = euler_maruyama
seed = 3
n_paths = 1
"""
    cfg, errors = parse_config(text)
    assert not errors
    assert run(cfg, str(tmp_path / "div")) == 2


_FAILING_CONFIGS = {
    # dt * L_mono = 1 violates the implicit step's precondition
    "invalid_parameter": (
        "simulate",
        "model = quintic\ngrid.T = 1\ngrid.N = 1\nscheme = split_step_implicit\n",
        1,
        "split_step_implicit requires dt * L_mono < 1",
    ),
    "divergence": (
        "simulate",
        "model = ginzburg_landau\nmodel.x0 = 10\ngrid.T = 2\ngrid.N = 64\n"
        "scheme = euler_maruyama\nseed = 3\n",
        2,
        "state diverged at step",
    ),
    "newton_failure": (
        "simulate",
        "model = ginzburg_landau\nmodel.x0 = 3\ngrid.T = 1\ngrid.N = 16\n"
        "scheme = split_step_implicit\nscheme.newton_max_iter = 1\n",
        2,
        "Newton residual",
    ),
    # sigma(x) = x vanishes on the path started at 0
    "singular_diffusion": (
        "greeks",
        "model = ginzburg_landau\nmodel.x0 = 0\ngrid.T = 1\ngrid.N = 16\nn_paths = 4\n",
        2,
        "diffusion below",
    ),
    # sigma = 0 makes every BEL weight divide by zero; all paths diverge, and
    # the pass stays quiet until the divergence is reported
    "bel_zero_sigma_diverged": (
        "greeks",
        "model = ginzburg_landau\nmodel.sigma = 0\nmodel.x0 = 50\ngrid.T = 2\n"
        "grid.N = 8\nscheme = euler_maruyama\nn_paths = 16\nseed = 1\n",
        2,
        "state diverged at step 5 (path 0)",
    ),
    # the state stays at 0 while J and K overflow: a divergence of the
    # variational system, not a Wronskian failure
    "jacobian_overflow": (
        "jacobian",
        "model = gbm\nmodel.mu = 1e200\nmodel.x0 = 0\ngrid.T = 1\ngrid.N = 3\n",
        2,
        "first variation (J, K) diverged at step 1",
    ),
    # every Doleans-Dade weight exp(1000 W - 5e5) underflows to 0, so the
    # identity cannot be checked at this h (the run used to report z = inf)
    "cm_weights_degenerate": (
        "cameron-martin",
        "model = quintic\nmodel.sigma = -1\ngrid.T = 1\ngrid.N = 2\n"
        "scheme = euler_maruyama\nladder.hdot = 1000\ncm.functional = clipped_sup\n"
        "n_paths = 4000\n",
        1,
        "h is too large to check at this path count",
    ),
    # a start beyond the divergence bound is rejected before any step
    "theta_beyond_bound": (
        "cameron-martin",
        "model = ginzburg_landau\nmodel.x0 = 1e200\ngrid.T = 1\ngrid.N = 16\n"
        "cm.functional = clipped_sup\n",
        1,
        "theta must be finite with |theta| <= 1e+150",
    ),
    # the Ito correction -sigma^2 T / 2 = -5000 underflows exp(log D) to 0
    "degenerate_wronskian": (
        "jacobian",
        "model = gbm\nmodel.sigma = 100\ngrid.T = 1\ngrid.N = 64\n"
        "scheme = euler_maruyama\n",
        2,
        "Wronskian non-positive",
    ),
}


@pytest.mark.parametrize("case", sorted(_FAILING_CONFIGS))
def test_library_errors_exit_with_one_line(tmp_path, capsys, case):
    subcommand, body, code, message = _FAILING_CONFIGS[case]
    conf = tmp_path / "fail.conf"
    conf.write_text(f"schema_version = 1\nexperiment = {subcommand}\n{body}")
    assert main([subcommand, "--config", str(conf), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("o/*.csv"))


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.InvalidParameterError("x"), 1),
        (errors.DimensionMismatchError("x"), 1),
        (errors.UnknownModelError("x"), 1),
        (errors.OutOfDomainError("x"), 1),
        (errors.NoClosedFormError("x"), 1),
        (errors.MissingGradientsError("x"), 1),
        (errors.DivergenceError(3), 2),
        (errors.NewtonFailureError(3, 1.0, 1e-10), 2),
        (errors.SingularDiffusionError("x"), 2),
        (errors.DegenerateWronskianError("x"), 2),
        (errors.WorkerLostError(64, -9), 2),
        (errors.WorkerStartError("x"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_error_class_exit_codes(tmp_path, monkeypatch, capsys, exc, code):
    import monosde.cli as cli

    def raising(cfg, spec, grid, out_dir, workers):
        raise exc

    monkeypatch.setitem(cli._RUNNERS, "simulate", raising)
    cfg, _ = parse_config(GOOD)
    assert run(cfg, str(tmp_path / "o")) == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_verify_subset(tmp_path, capsys):
    text = """
schema_version = 1
experiment = verify
model = ou
grid.T = 1
grid.N = 64
verify.criteria = 2
"""
    cfg, errors = parse_config(text)
    assert not errors
    out = tmp_path / "ver"
    assert run(cfg, str(out)) == 0
    table = capsys.readouterr().out
    assert "PASS" in table
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[0] == "number,criterion,status,detail"
    assert lines[1].startswith("2,gbm_exact_recursions,PASS")


def _refused_criteria(tmp_path, monkeypatch, capsys, criteria):
    """stderr of `monosde verify` with verify.criteria = criteria, which must
    exit 1 before criterion 2 runs and leave --out empty."""
    import monosde.acceptance as acceptance

    monkeypatch.setitem(acceptance._CRITERIA, 2, lambda workers: pytest.fail("criterion 2 ran"))
    conf = tmp_path / "verify.conf"
    conf.write_text(
        "schema_version = 1\nexperiment = verify\nmodel = ou\n"
        f"grid.T = 1\ngrid.N = 64\nverify.criteria = {criteria}\n"
    )
    out = tmp_path / "v"
    assert main(["verify", "--config", str(conf), "--out", str(out)]) == 1
    assert os.listdir(out) == []
    return capsys.readouterr().err


@pytest.mark.parametrize("criteria, unknown", [("12", "12"), ("0,2", "0"), ("2,13,12", "12, 13")])
def test_unknown_criterion_is_one_error_line(tmp_path, monkeypatch, capsys, criteria, unknown):
    err = _refused_criteria(tmp_path, monkeypatch, capsys, criteria)
    assert err == f"error: unknown acceptance criteria {unknown}; choose from 1..11\n"


def test_repeated_criterion_is_one_error_line(tmp_path, monkeypatch, capsys):
    err = _refused_criteria(tmp_path, monkeypatch, capsys, "2,2")
    assert err == "error: repeated acceptance criteria 2\n"


@pytest.mark.parametrize("blocked", ["out", "paths.csv", "simulate.meta"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, blocked):
    # a file where --out should be, or a directory where an artifact should be
    conf = tmp_path / "sim.conf"
    conf.write_text(GOOD)
    out = tmp_path / "o"
    if blocked == "out":
        out.write_text("")
    else:
        (out / blocked).mkdir(parents=True)
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write artifacts to {out}: [Errno ")
    assert err.count("\n") == 1
    # nothing of the run is left in --out, complete or not
    if blocked == "out":
        assert out.read_text() == ""
    else:
        assert os.listdir(out) == [blocked]
        assert os.listdir(out / blocked) == []


def test_workers_flag_is_the_only_worker_knob(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda cfg, out, workers: seen.append(workers) or 0)
    # an environment variable of the old name is ignored
    monkeypatch.setenv("MONOSDE_WORKERS", "3")
    conf = tmp_path / "sim.conf"
    conf.write_text(GOOD)
    assert main(["simulate", "--config", str(conf)]) == 0
    assert main(["simulate", "--config", str(conf), "--workers", "2"]) == 0
    assert seen == [1, 2]


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_workers_below_one_is_one_error_line(tmp_path, capsys, workers):
    conf = tmp_path / "sim.conf"
    conf.write_text(GOOD)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(conf), "--out", str(out), "--workers", workers]) == 1
    assert capsys.readouterr().err == "error: --workers must be >= 1\n"
    assert not out.exists()


def test_unknown_model_parameter_is_a_config_error(tmp_path, capsys):
    conf = tmp_path / "sim.conf"
    conf.write_text(GOOD.replace("model.sigma", "model.sigm"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: model gbm has no parameter 'sigm'; parameters: mu, sigma, x0\n"
    assert not out.exists()


def test_verify_failure_exits_3(tmp_path, monkeypatch, capsys):
    import monosde.acceptance as acceptance
    from monosde.acceptance import CriterionResult

    monkeypatch.setattr(
        acceptance,
        "run_criteria",
        lambda numbers=None, workers=1: [CriterionResult(2, "stub", False, "forced")],
    )
    cfg, errors = parse_config(
        "schema_version = 1\nexperiment = verify\nmodel = ou\n"
        "grid.T = 1\ngrid.N = 64\nverify.criteria = 2\n"
    )
    assert not errors
    assert run(cfg, str(tmp_path / "v")) == 3
    assert "FAIL" in capsys.readouterr().out


def _gl16(subcommand, extra, model="ginzburg_landau"):
    return (
        f"schema_version = 1\nexperiment = {subcommand}\nmodel = {model}\n"
        f"grid.T = 1\ngrid.N = 16\nn_paths = 64\n{extra}\n"
    )


@pytest.mark.parametrize(
    "subcommand, model, extra, key",
    [
        ("ladder", "ginzburg_landau", "ladder.epsilons = nan,0.5", "ladder.epsilons"),
        ("ladder", "ginzburg_landau", "ladder.deltas = nan", "ladder.deltas"),
        ("greeks", "ginzburg_landau", "greeks.payoff = digital\ngreeks.strike = nan",
         "greeks.strike"),
        ("ladder", "ou", "model.kappa = nan", "model.kappa"),
        ("greeks", "ginzburg_landau", "greeks.fd_eps = inf", "greeks.fd_eps"),
    ],
    ids=["epsilons", "deltas", "strike", "kappa", "inf"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, subcommand, model, extra, key):
    conf = tmp_path / "nan.conf"
    conf.write_text(_gl16(subcommand, extra, model))
    out = tmp_path / "o"
    assert main([subcommand, "--config", str(conf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ") and "finite number" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("where", ["config", "override"])
def test_negative_seed_is_one_error_line(tmp_path, capsys, where):
    conf = tmp_path / "sim.conf"
    argv = ["simulate", "--config", str(conf), "--out", str(tmp_path / "o")]
    if where == "config":
        conf.write_text(GOOD.replace("seed = 42", "seed = -1"))
        expected = "config error: seed must be >= 0\n"
    else:
        conf.write_text(GOOD)
        argv += ["--seed", "-3"]
        expected = "error: seed must be >= 0, got -3\n"
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == expected and "Traceback" not in err


@pytest.mark.parametrize(
    "conf_text, config_arg, expected",
    [
        (GOOD + "n_paths 3\n", "file", r"config error: line 12: expected 'key = value'"),
        (GOOD + "seed = 1\n", "file", r"config error: line 12: duplicate key 'seed'"),
        (GOOD.replace("schema_version = 1", "schema_version = 2"), "file",
         r"config error: schema_version must be 1"),
        (GOOD, None, r"error: --config is required"),
        # a directory cannot be read as a file
        (GOOD, "directory", r"error: cannot read config: \[Errno \d+\] .+"),
    ],
    ids=["no_equals", "duplicate_key", "schema_version", "no_config", "unreadable"],
)
def test_config_and_argument_errors_are_one_line(tmp_path, capsys, conf_text, config_arg, expected):
    conf = tmp_path / "sim.conf"
    conf.write_text(conf_text)
    paths = {"file": conf, "directory": tmp_path}
    argv = ["simulate", "--out", str(tmp_path / "o")]
    if config_arg is not None:
        argv += ["--config", str(paths[config_arg])]
    assert main(argv) == 1
    assert re.fullmatch(expected + "\n", capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_duplicate_epsilons_are_rejected():
    _, errors = parse_config(
        GOOD.replace("experiment = simulate", "experiment = ladder")
        + "ladder.epsilons = 0.5,0.5\n"
    )
    assert errors == ["ladder.epsilons must be strictly decreasing"]


def test_empty_lists_are_echoed():
    cfg, errors = parse_config(GOOD + "ladder.epsilons =\nladder.deltas =\n")
    assert not errors and cfg.epsilons == () and cfg.deltas == ()
    text = emit_config(cfg)
    assert "ladder.epsilons = \nladder.deltas = \n" in text
    assert parse_config(text) == (cfg, [])


def test_cm_hdot_is_read_when_ladder_hdot_is_absent():
    cm, _ = parse_config(GOOD + "cm.hdot = 0.5\n")
    both, _ = parse_config(GOOD + "cm.hdot = 0.5\nladder.hdot = 2\n")
    assert (cm.hdot, both.hdot) == (0.5, 2.0)
    _, errors = parse_config(GOOD + "cm.hdot = x\nladder.hdot = 2\n")
    assert errors == ["cm.hdot must be a finite number, got 'x'"]


def test_echo_text_is_pinned():
    # the sidecar echo of every artifact set; recorded before the schema
    # became one declaration
    cfg, _ = parse_config(GOOD + "verify.criteria = 2,5\ncm.hdot = 0.3\n")
    assert emit_config(cfg) == (
        "schema_version = 1\nexperiment = simulate\nmodel = gbm\n"
        "model.mu = 0.050000000000000003\nmodel.sigma = 0.20000000000000001\n"
        "grid.T = 1\ngrid.N = 64\nscheme = euler_maruyama\n"
        "scheme.newton_tol = 1e-10\nscheme.newton_max_iter = 50\nseed = 42\n"
        "n_paths = 2\nmalliavin.s_stride = 8\n"
        "ladder.epsilons = 0.5,0.25,0.125,0.0625,0.03125,0.015625,0.0078125\n"
        "ladder.deltas = 0.10000000000000001,0.01,0.001\n"
        "ladder.hdot = 0.29999999999999999\ncm.functional = clipped_sup\n"
        "cm.clip = 10\ngreeks.payoff = identity\ngreeks.strike = 1\n"
        "greeks.weight = constant\ngreeks.fd_eps = 0.001\nverify.criteria = 2,5\n"
    )


def _declared_values(f):
    """A strategy for the valid values of one config field, from its declaration."""
    meta = f.metadata
    if "choices" in meta:
        return st.sampled_from(meta["choices"])
    positive = meta.get("positive", False)
    number = st.floats(
        min_value=0.0 if positive else None, exclude_min=positive,
        allow_nan=False, allow_infinity=False,
    )
    integer = st.integers(min_value=meta.get("minimum", -(2**40)), max_value=2**40)
    if meta["read"] is cli._NUMBER:
        return number
    if meta["read"] is cli._INT:
        return integer
    if meta["read"] is cli._INTS:
        return st.lists(integer, max_size=4).map(tuple)
    assert meta["read"] is cli._NUMBERS
    order = (lambda v: tuple(sorted(v, reverse=True))) if meta.get("decreasing") else tuple
    return st.lists(number, max_size=5, unique=True).map(order)


def _zoo_accepts(cfg):
    try:
        zoo_lookup(cfg.model, cfg.model_params)
    except errors.MonosdeError:
        return False
    return True


_VALID_CONFIGS = st.builds(
    cli.ExperimentConfig,
    model_params=st.dictionaries(
        st.sampled_from(("x0", "sigma", "mu")),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    **{f.name: _declared_values(f) for f in fields(cli.ExperimentConfig) if "key" in f.metadata},
).filter(_zoo_accepts)


@settings(max_examples=60, deadline=None, database=None)
@given(_VALID_CONFIGS)
def test_emit_parse_round_trip_of_declared_fields(cfg):
    text = emit_config(cfg)
    assert parse_config(text) == (cfg, [])
    assert emit_config(parse_config(text)[0]) == text


def _cli(tmp_path, subcommand, body, workers=1):
    """`monosde <subcommand>` on a config body; (exit code, output dir)."""
    conf = tmp_path / f"{subcommand}.conf"
    conf.write_text(f"schema_version = 1\nexperiment = {subcommand}\n{body}")
    out = tmp_path / "out"
    argv = [subcommand, "--config", str(conf), "--out", str(out), "--workers", str(workers)]
    return main(argv), out


_GL = "model = ginzburg_landau\ngrid.T = 1\n"
_GBM = "model = gbm\ngrid.T = 1\n"

#: sha256 of artifacts as the row-by-row writers wrote them: paths per
#: scheme, 1025 tamed paths (two chunks, 513 + 512, at workers 2), the
#: Malliavin field at two strides, and the Jacobian per scheme; then the
#: greeks (BEL weights and FD) and the Gateaux ladder (D^h X) per scheme;
#: then the field under the other two schemes and on the random-sigma
#: model (its U and V forcings, t_N off the s-lattice), and the gbm Jacobian per
#: scheme (multiplicative noise: a non-zero S and the Wronskian's
#: realized-QV term); then the three artifacts of the benchmark's
#: `artifacts` workload at its sizes (N = 1024); then the Cameron-Martin
#: check (base and shifted variants of one stacked batch) per scheme; last,
#: greeks in 4 chunks of 4096 paths, two per worker at workers 2, so that a
#: worker reports more than one chunk.  The GL cases that read the drift on
#: more than one path were re-pinned when it became eta*u - u*u*u, whose
#: bytes no CPU's pow kernel changes.
_PINNED = {
    "paths_euler": (
        "simulate", _GL + "grid.N = 64\nscheme = euler_maruyama\nseed = 5\nn_paths = 3\n",
        "paths.csv", "def37707073f5c58273ca92a054a0e4e132cfe332a509f5acddfce3725207dbd",
    ),
    "paths_tamed": (
        "simulate", _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 5\nn_paths = 3\n",
        "paths.csv", "69d63ecd27a0d6ea36f447c0dfb07d8205d7b11455dddba67801077c37e033a2",
    ),
    "paths_implicit": (
        "simulate", _GL + "grid.N = 64\nscheme = split_step_implicit\nseed = 5\nn_paths = 3\n",
        "paths.csv", "facd734a787a55bdd086d6746707fc291494b64d52944dd7fc84d47db4c4713b",
    ),
    "paths_tamed_1025": (
        "simulate", _GL + "grid.N = 4\nscheme = tamed_euler\nseed = 3\nn_paths = 1025\n",
        "paths.csv", "2286f2964ad8ffc050debc413c746073154ad33a490564e0cfae727629c371ba",
    ),
    "field_stride_1": (
        "malliavin", _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 9\nmalliavin.s_stride = 1\n",
        "malliavin_field.csv", "9c22d1294a50b22fba3e4f313c9712134b8651173cfd6aad84046b33b8891b47",
    ),
    "field_stride_8": (
        "malliavin", _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 9\nmalliavin.s_stride = 8\n",
        "malliavin_field.csv", "803bd146f6dbab650b93dfb61288e4724cdd08f3ddf0c7fa34e2b7067640eec1",
    ),
    "jacobian_euler": (
        "jacobian", _GL + "grid.N = 64\nscheme = euler_maruyama\nseed = 9\n",
        "jacobian.csv", "312affbddca3f9990b4d47a55035e8c80154793b8ce6e5dd7945341555941cf7",
    ),
    "jacobian_tamed": (
        "jacobian", _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 9\n",
        "jacobian.csv", "ae7b19ae3255431b14d636507ddab58ba39b3031ee74fa5a6bdb809c68c438e0",
    ),
    "jacobian_implicit": (
        "jacobian", _GL + "grid.N = 64\nscheme = split_step_implicit\nseed = 9\n",
        "jacobian.csv", "f166d3392f5ba7d6fcbf5f3e50b27a469b6dd3d083d2ec47d92838b6fd3f205d",
    ),
    "greeks_euler": (
        "greeks", _GL + "grid.N = 64\nscheme = euler_maruyama\nseed = 5\nn_paths = 64\n",
        "greeks.csv", "5d844720078dc8b843c5e3ac13356084e6c9567176b4527ff44bf18f67109603",
    ),
    "greeks_tamed": (
        "greeks", _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 5\nn_paths = 64\n",
        "greeks.csv", "c39158d72acdc5deec5d5aa81a4cda863d956d785bf6264c2db78a8d12f1fa62",
    ),
    "greeks_implicit": (
        "greeks", _GL + "grid.N = 64\nscheme = split_step_implicit\nseed = 5\nn_paths = 64\n",
        "greeks.csv", "b5f3cc312dc8007d94a8f494b6a0d1511d0340b501b17b7328dd4838c422c093",
    ),
    "ladder_euler": (
        "ladder", _GL + "grid.N = 64\nscheme = euler_maruyama\nseed = 5\nn_paths = 64\n",
        "ladder.csv", "8a532d3d9ebfac703d8ffd047c39428b757dd69f14570077c84b51b4aebe73ca",
    ),
    "ladder_tamed": (
        "ladder", _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 5\nn_paths = 64\n",
        "ladder.csv", "6193aaea7191a33da364c9ce605ba120f25f12a56ccc20d60efdbd925ccdea7d",
    ),
    "ladder_implicit": (
        "ladder", _GL + "grid.N = 64\nscheme = split_step_implicit\nseed = 5\nn_paths = 64\n",
        "ladder.csv", "2acb182e3cad24643f027fa8d45b1e85935c32fbd14d24c1547b339b4aafca6b",
    ),
    "field_euler": (
        "malliavin", _GL + "grid.N = 64\nscheme = euler_maruyama\nseed = 9\nmalliavin.s_stride = 8\n",
        "malliavin_field.csv", "4b14d4143ae6333bb63c49d0e41144b02234d0b0b4bf8f605ddd22363661ef2e",
    ),
    "field_implicit": (
        "malliavin", _GL + "grid.N = 64\nscheme = split_step_implicit\nseed = 9\nmalliavin.s_stride = 8\n",
        "malliavin_field.csv", "cbe59b78e8e937a9e8b6a56c3c33eab8e6fea390988c6a6d5bc505eb8b23f8ec",
    ),
    "field_random_sigma": (
        "malliavin",
        "model = random_sigma_example\ngrid.T = 1\ngrid.N = 64\nscheme = euler_maruyama\n"
        "seed = 9\nmalliavin.s_stride = 5\n",
        "malliavin_field.csv", "983d0f74b2b9d71468b60595f44951798a4a27e4e7ffeba66d37c96699b5f384",
    ),
    "jacobian_gbm_euler": (
        "jacobian", _GBM + "grid.N = 64\nscheme = euler_maruyama\nseed = 9\n",
        "jacobian.csv", "5f8adf099865fbc9fe00a62705627c5748f9facb7ebc8a9535ede1c0fd78cf64",
    ),
    "jacobian_gbm_tamed": (
        "jacobian", _GBM + "grid.N = 64\nscheme = tamed_euler\nseed = 9\n",
        "jacobian.csv", "83d9bde21de4c75577c11359a2808c81bb55eb875a5ce7a2b45f11f74047d5d0",
    ),
    "jacobian_gbm_implicit": (
        "jacobian", _GBM + "grid.N = 64\nscheme = split_step_implicit\nseed = 9\n",
        "jacobian.csv", "4ea5a9fc98eeb7407d136111c80fcb400969a597aa14afd06cbae8dd0896c1cc",
    ),
    "paths_tamed_1024": (
        "simulate", _GL + "grid.N = 1024\nscheme = tamed_euler\nseed = 5\nn_paths = 8\n",
        "paths.csv", "ff99c9d9a6c76ad49fa7169f881a6e01e7c254a14b84dc9d612a4e7bcc7f6ee8",
    ),
    "field_tamed_1024": (
        "malliavin", _GL + "grid.N = 1024\nscheme = tamed_euler\nseed = 5\nmalliavin.s_stride = 8\n",
        "malliavin_field.csv", "0e232d48b20378b4fcc01326a56f654b1ca4d16be16b238e598f76fa3ec92851",
    ),
    "jacobian_implicit_1024": (
        "jacobian", _GL + "grid.N = 1024\nscheme = split_step_implicit\nseed = 5\n",
        "jacobian.csv", "0d34f5a762f8a5bbe42c162df422973a7556216f0c1edff927309d8a3d0a4521",
    ),
    "cameron_martin_euler": (
        "cameron-martin", _GL + "grid.N = 64\nscheme = euler_maruyama\nseed = 5\nn_paths = 64\n",
        "cameron_martin.csv", "f87b49487f10790768c92800aade1ba1c3fde920583f827a373a2f023ef5bcff",
    ),
    "cameron_martin_tamed": (
        "cameron-martin", _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 5\nn_paths = 64\n",
        "cameron_martin.csv", "62d86c55ae7f818ef9fce4abf1a30825ae489a0674e1a286c10a96e9969542db",
    ),
    "cameron_martin_implicit": (
        "cameron-martin", _GL + "grid.N = 64\nscheme = split_step_implicit\nseed = 5\n"
        "n_paths = 64\n",
        "cameron_martin.csv", "99154bb60e5896aba370a0f80038808dc0da8648af28866282e1cbdf7dc46bfe",
    ),
    "greeks_tamed_16384": (
        "greeks", _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 5\nn_paths = 16384\n",
        "greeks.csv", "f9c26ec14654bc3bf2a164fede75f691ff4d11aaa42c6a71258ad9f39fd54e9b",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(_PINNED))
def test_artifact_bytes_are_pinned(tmp_path, case, workers):
    subcommand, body, name, digest = _PINNED[case]
    code, out = _cli(tmp_path, subcommand, body, workers)
    assert code == 0
    data = (out / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    # the Malliavin field ends its lines in CRLF, every other CSV in LF
    crlf = data.count(b"\r\n")
    assert crlf == (data.count(b"\n") if name == "malliavin_field.csv" else 0)


_MULTI_PATH_FAILURES = {
    # paths 7, 9 and 10 diverge, at steps 8, 7 and 8: path 7 is reported
    "divergence": (
        "model.x0 = 3\ngrid.T = 2\ngrid.N = 8\nscheme = euler_maruyama\nseed = 3\n"
        "n_paths = 12\n",
        "error: state diverged at step 8 (path 7)\n",
    ),
    # paths 0 and 1 converge in 3 Newton iterations, path 2 does not
    "newton_failure": (
        "grid.T = 1\ngrid.N = 8\nscheme = split_step_implicit\n"
        "scheme.newton_max_iter = 3\nseed = 0\nn_paths = 8\n",
        "error: Newton residual 3.677e-10 > tol 1.000e-10 at step 6 (path 2)\n",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(_MULTI_PATH_FAILURES))
def test_multi_path_simulate_reports_the_first_failing_path(tmp_path, capfd, case, workers):
    # file descriptor 2, which forked workers share: the one error line is
    # all that any process writes there
    body, line = _MULTI_PATH_FAILURES[case]
    code, out = _cli(tmp_path, "simulate", "model = ginzburg_landau\n" + body, workers)
    assert code == 2
    assert capfd.readouterr().err == line
    assert not (out / "paths.csv").exists()


@_LINUX_ONLY
def test_a_failed_fork_exits_2_with_one_line(tmp_path, monkeypatch, capfd):
    _second_fork_fails(monkeypatch)
    body, _ = _MULTI_PATH_FAILURES["divergence"]
    code, out = _cli(tmp_path, "simulate", "model = ginzburg_landau\n" + body, 2)
    assert code == 2
    assert capfd.readouterr().err == (
        "error: cannot start a worker process: [Errno 11] Resource temporarily unavailable\n"
    )
    assert not (out / "paths.csv").exists()
    _assert_no_child()


@pytest.mark.parametrize(
    "subcommand", ["cameron-martin", "greeks", "ladder", "jacobian", "malliavin"]
)
def test_run_with_every_path_diverged_exits_2(tmp_path, capsys, subcommand):
    # every path diverges at step 5, path 0 first: a valid config whose run
    # fails numerically; the single-path subcommands run path 0 and name it
    body = ("model = ginzburg_landau\nmodel.x0 = 50\ngrid.T = 2\ngrid.N = 8\n"
            "scheme = euler_maruyama\nn_paths = 16\n")
    code, out = _cli(tmp_path, subcommand, body)
    assert code == 2
    assert capsys.readouterr().err == "error: state diverged at step 5 (path 0)\n"
    assert not list(out.glob("*.csv"))


def test_malliavin_matrix_out_of_range_exits_2(tmp_path, capsys):
    # g = 1e158 makes sigma(t_1) about 1e155: the field is finite, but Q(t_1)
    # overflows, and the run must not write Q = inf
    body = ("model = random_sigma_example\nmodel.g_low = 1e158\nmodel.g_high = 1e158\n"
            "grid.T = 1e-6\ngrid.N = 1\nscheme = euler_maruyama\nmalliavin.s_stride = 1\n")
    code, out = _cli(tmp_path, "malliavin", body)
    assert code == 2
    assert capsys.readouterr().err == "error: Malliavin matrix Q diverged at step 1\n"
    assert not list(out.iterdir())


def test_failing_malliavin_run_writes_no_file(tmp_path, capsys):
    # a one-row s-lattice has no Malliavin matrix; the field is not written either
    body = "model = ou\ngrid.T = 1\ngrid.N = 4\nmalliavin.s_stride = 8\n"
    code, out = _cli(tmp_path, "malliavin", body)
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: t_index must be covered by the s-lattice (including s = t)\n"
    assert not list(out.iterdir())


def test_python_dash_m_runs_the_cli(tmp_path):
    conf = tmp_path / "sim.conf"
    conf.write_text(GOOD)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(os.path.abspath(monosde.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "monosde", "simulate", "--config", str(conf), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "ref")]) == 0
    assert (out / "paths.csv").read_bytes() == (tmp_path / "ref" / "paths.csv").read_bytes()


def _avx512_targets():
    """The AVX-512 targets of numpy's own dispatch list that this CPU runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__
            if (t.startswith("AVX512") or t == "X86_V4") and umath.__cpu_features__.get(t)]


#: GL tamed greeks, GL split-step ladder and quintic split-step simulate, each
#: evaluating the drift on many paths at once, where numpy runs its SIMD kernels
_CPU_JOBS = {
    "greeks": _GL + "grid.N = 64\nscheme = tamed_euler\nseed = 5\nn_paths = 256\n",
    "ladder": _GL + "grid.N = 64\nscheme = split_step_implicit\nseed = 5\nn_paths = 64\n",
    "simulate": "model = quintic\ngrid.T = 1\ngrid.N = 64\nscheme = split_step_implicit\n"
                "seed = 5\nn_paths = 64\n",
}


@pytest.mark.parametrize("subcommand", sorted(_CPU_JOBS))
def test_artifacts_do_not_depend_on_numpy_avx512_kernels(tmp_path, subcommand):
    # a CPU without AVX-512 runs numpy's other kernels: turning them off in a
    # subprocess must leave every artifact byte as this process writes it
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 kernel on this CPU, so none can be turned off")
    code, ref = _cli(tmp_path, subcommand, _CPU_JOBS[subcommand])
    assert code == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(monosde.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "no_avx512"
    proc = subprocess.run(
        [sys.executable, "-m", "monosde", subcommand, "--config",
         str(tmp_path / f"{subcommand}.conf"), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(ref))
    assert names == sorted(os.listdir(out))
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


#: parameter values at the edges of what a config accepts
_EXTREME = (-1e300, -1e6, -50.0, -1.0, -0.0, 1e-300, 1e-9, 0.5, 1.0, 3.0, 50.0, 1e6, 1e300)
_NON_FINITE = re.compile(r"(?i)(?<![a-z])(nan|inf)(?![a-z])")


@st.composite
def _contract_configs(draw, model, scheme, subcommands, max_paths):
    """A config body of one of subcommands on model under scheme, with
    N <= 16, n_paths <= max_paths and extreme model.* values; (subcommand,
    body)."""
    subcommand = draw(st.sampled_from(subcommands))
    values = st.one_of(st.sampled_from(_EXTREME), st.floats(allow_nan=False, allow_infinity=False))
    params = draw(st.dictionaries(st.sampled_from(sorted(zoo_lookup(model).params)), values))
    lines = [
        f"model = {model}", f"scheme = {scheme}",
        f"grid.T = {draw(st.sampled_from((1e-6, 1.0, 2.0, 1e3)))!r}",
        f"grid.N = {draw(st.integers(1, 16))}", f"seed = {draw(st.integers(0, 99))}",
        f"n_paths = {draw(st.integers(1, max_paths))}",
    ] + [f"model.{k} = {v!r}" for k, v in params.items()]
    if subcommand == "malliavin":
        lines.append(f"malliavin.s_stride = {draw(st.integers(1, 20))}")
    if subcommand in ("ladder", "cameron-martin"):
        lines += [
            f"ladder.hdot = {draw(st.sampled_from((-1e3, -1.0, 0.0, 0.5, 1.0, 1e3)))!r}",
            f"ladder.epsilons = {draw(st.sampled_from(('0.5,0.25,0.125', '1e-8', '1e3,1')))}",
            f"cm.functional = {draw(st.sampled_from(('clipped_sup', 'terminal')))}",
        ]
    if subcommand == "greeks":
        lines += [
            f"greeks.payoff = {draw(st.sampled_from(('identity', 'tanh', 'digital')))}",
            f"greeks.weight = {draw(st.sampled_from(('constant', 'linear')))}",
            f"greeks.fd_eps = {draw(st.sampled_from((1e-300, 1e-3, 1.0, 1e6)))!r}",
        ]
    return subcommand, "".join(line + "\n" for line in lines)


def _check_the_error_contract(subcommand, body):
    """Exit 0, 1 or 2; at most one error line and never a traceback; no
    warning; no non-finite number in an artifact of a successful run."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        conf = os.path.join(tmp, "run.conf")
        with open(conf, "w") as fh:
            fh.write(f"schema_version = 1\nexperiment = {subcommand}\n{body}")
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stderr(err):
            code = main([subcommand, "--config", conf, "--out", out])
        assert code in (0, 1, 2)
        assert not caught, [str(w.message) for w in caught]
        assert err.getvalue() == "" or re.fullmatch(r"(config )?error: [^\n]+\n", err.getvalue())
        if code == 0:
            for name in os.listdir(out):
                with open(os.path.join(out, name)) as fh:
                    assert not _NON_FINITE.search(fh.read()), name


@pytest.mark.parametrize("scheme", sorted(cli.SCHEMES))
@pytest.mark.parametrize("model", cli.ZOO_NAMES)
@settings(max_examples=2, deadline=None, database=None)
@given(data=st.data())
def test_single_path_runs_keep_the_error_contract(model, scheme, data):
    _check_the_error_contract(
        *data.draw(_contract_configs(model, scheme, ("simulate", "jacobian", "malliavin"), 4))
    )


@pytest.mark.parametrize("scheme", sorted(cli.SCHEMES))
@pytest.mark.parametrize("model", cli.ZOO_NAMES)
@settings(max_examples=2, deadline=None, database=None)
@given(data=st.data())
def test_multi_path_runs_keep_the_error_contract(model, scheme, data):
    _check_the_error_contract(
        *data.draw(_contract_configs(model, scheme, ("ladder", "cameron-martin", "greeks"), 40))
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "subcommand, body, err",
    [
        # the squares of ~1e-300 paired differences underflowed: z_score = inf
        ("cameron-martin",
         "model = gbm\nmodel.mu = 1.0420914795612735\nmodel.x0 = 1e-300\ngrid.T = 1\n"
         "grid.N = 11\nscheme = split_step_implicit\nseed = 62\nn_paths = 6\n"
         "cm.functional = terminal\n",
         "error: the z-score of the paired differences is out of floating-point range "
         "(mean 3e-301, stderr 0)\n"),
        # sigma ~ 0 and Doleans-Dade weights ~ 1e-200: the paired differences
        # are all equal, so z_score was inf
        ("cameron-martin",
         "model = ou\nmodel.sigma = 7.673616252822721e-103\nmodel.x0 = -8.328756268906384\n"
         "grid.T = 1000\ngrid.N = 4\nscheme = split_step_implicit\nseed = 86\n"
         "n_paths = 20\ncm.functional = terminal\n",
         "error: the z-score of the paired differences is out of floating-point range "
         "(mean -2.1e-09, stderr 0)\n"),
        # the BEL estimate of finite live samples overflowed in its squares,
        # with a warning, before the FD estimate found too few live paths
        ("greeks",
         "model = quintic\ngrid.T = 1000\ngrid.N = 4\nscheme = euler_maruyama\nseed = 21\n"
         "n_paths = 36\ngreeks.fd_eps = 1\n",
         "error: the Monte Carlo estimate is out of floating-point range\n"),
    ],
    ids=["cm_tiny_differences", "cm_constant_differences", "greeks_huge_samples"],
)
def test_multi_path_runs_found_breaking_the_error_contract(tmp_path, capsys, subcommand, body, err):
    # each now exits 1 with one error line and writes no artifact
    code, out = _cli(tmp_path, subcommand, body)
    assert (code, capsys.readouterr().err) == (1, err)
    assert not list(out.glob("*.csv"))
