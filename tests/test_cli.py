import os

import pytest

from monosde import errors
from monosde.cli import emit_config, main, parse_config, run


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


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.InvalidParameterError("x"), 1),
        (errors.DimensionMismatchError("x"), 1),
        (errors.UnknownModelError("x"), 1),
        (errors.OutOfDomainError("x"), 1),
        (errors.NoClosedFormError("x"), 1),
        (errors.MissingGradientsError("x"), 1),
        (errors.NonAdaptedIntegrandError("x"), 1),
        (errors.DivergenceError(3), 2),
        (errors.NewtonFailureError(3, 1.0, 1e-10), 2),
        (errors.SingularDiffusionError("x"), 2),
        (errors.DegenerateWronskianError("x"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_error_class_exit_codes(tmp_path, monkeypatch, capsys, exc, code):
    import monosde.cli as cli

    def raising(cfg, out_dir, workers):
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


def test_default_workers_env(monkeypatch):
    from monosde.core import default_workers

    monkeypatch.setenv("MONOSDE_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("MONOSDE_WORKERS", "junk")
    assert default_workers() == 1


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
