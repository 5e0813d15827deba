"""Experiment configuration, orchestration, and CSV emission.

Config format: flat ``key = value`` lines, ``#`` comments, explicit
``schema_version``.  Unknown keys are rejected and all validation errors are
reported together.  Every artifact is written with 17-significant-digit
formatting plus a metadata sidecar (the canonical config echo, library
version, and seed), sufficient to reproduce it bit-identically; artifacts
contain no timestamps.

Exit codes: 0 success; 1 invalid config, or a parameter or domain error
raised while running; 2 numerical runtime failure (DivergenceError,
NewtonFailureError, SingularDiffusionError, DegenerateWronskianError); 3
acceptance failure (verify).  Errors of the library reach stderr as one
``error: ...`` line, never as a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import (
    CameronMartinPath,
    default_workers,
    make_grid,
    sample_noise,
)
from .errors import (
    DegenerateWronskianError,
    DivergenceError,
    MonosdeError,
    NewtonFailureError,
    SingularDiffusionError,
)
from .models import ZOO_NAMES, zoo_lookup
from .solver import SCHEMES, SchemeChoice, simulate
from .variational import jacobian
from .malliavin import malliavin_field, malliavin_matrix
from .shiftlab import (
    cameron_martin_check,
    clipped_sup_norm,
    gateaux_ladder,
    terminal_value,
)
from .greeks import (
    BELConfig,
    bel_fd_gradients,
    constant_weight,
    digital_payoff,
    identity_payoff,
    linear_weight,
    tanh_payoff,
)
# Not called here; perfbench/tracer.py wraps these two names in this module.
from .greeks import bel_gradient, fd_gradient  # noqa: F401

EXPERIMENTS = (
    "simulate",
    "jacobian",
    "malliavin",
    "ladder",
    "cameron-martin",
    "greeks",
    "verify",
)

_FMT = "{:.17g}"


def _fmt(x) -> str:
    return _FMT.format(float(x))


@dataclass
class ExperimentConfig:
    experiment: str
    model: str
    model_params: dict
    grid_T: float
    grid_N: int
    scheme: str = "tamed_euler"
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    seed: int = 0
    n_paths: int = 1
    # kind-specific options
    s_stride: int = 8
    epsilons: tuple = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125)
    deltas: tuple = (0.1, 0.01, 0.001)
    hdot: float = 1.0
    functional: str = "clipped_sup"
    clip: float = 10.0
    payoff: str = "identity"
    strike: float = 1.0
    weight: str = "constant"
    fd_eps: float = 1e-3
    criteria: tuple = ()

    def scheme_choice(self) -> SchemeChoice:
        return SchemeChoice(self.scheme, self.newton_tol, self.newton_max_iter)


_REQUIRED = ("schema_version", "experiment", "model", "grid.T", "grid.N")

_KNOWN_KEYS = {
    "schema_version",
    "experiment",
    "model",
    "grid.T",
    "grid.N",
    "scheme",
    "scheme.newton_tol",
    "scheme.newton_max_iter",
    "seed",
    "n_paths",
    "malliavin.s_stride",
    "ladder.epsilons",
    "ladder.deltas",
    "ladder.hdot",
    "cm.hdot",
    "cm.functional",
    "cm.clip",
    "greeks.payoff",
    "greeks.strike",
    "greeks.weight",
    "greeks.fd_eps",
    "verify.criteria",
}


def parse_config(text: str):
    """Parse and validate a config; returns (config_or_None, errors list)."""
    errors = []
    raw = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {ln}: expected 'key = value'")
            continue
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            errors.append(f"line {ln}: duplicate key {key!r}")
        raw[key] = value

    for key in _REQUIRED:
        if key not in raw:
            errors.append(f"missing required field {key!r}")
    for key in raw:
        if key not in _KNOWN_KEYS and not key.startswith("model."):
            errors.append(f"unknown key {key!r}")
    if errors and any(k not in raw for k in _REQUIRED):
        return None, errors

    def get_float(key, default=None, positive=False):
        if key not in raw:
            return default
        try:
            v = float(raw[key])
        except ValueError:
            errors.append(f"{key} must be a number, got {raw[key]!r}")
            return default
        if positive and not (v > 0):
            errors.append(f"{key} must be > 0")
        return v

    def get_int(key, default=None, minimum=None):
        if key not in raw:
            return default
        try:
            v = int(raw[key])
        except ValueError:
            errors.append(f"{key} must be an integer, got {raw[key]!r}")
            return default
        if minimum is not None and v < minimum:
            errors.append(f"{key} must be >= {minimum}")
        return v

    if raw.get("schema_version") != "1":
        errors.append("schema_version must be 1")
    experiment = raw.get("experiment", "")
    if experiment not in EXPERIMENTS:
        errors.append(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
        )
    model = raw.get("model", "")
    if model not in ZOO_NAMES:
        errors.append(f"unknown model {model!r}; zoo: {', '.join(ZOO_NAMES)}")
    grid_T = get_float("grid.T", positive=True)
    grid_N = get_int("grid.N", minimum=1)
    scheme = raw.get("scheme", "tamed_euler")
    if scheme not in SCHEMES:
        errors.append(f"scheme must be one of {', '.join(SCHEMES)}")
    newton_tol = get_float("scheme.newton_tol", 1e-10, positive=True)
    newton_max_iter = get_int("scheme.newton_max_iter", 50, minimum=1)
    seed = get_int("seed", 0)
    n_paths = get_int("n_paths", 1, minimum=1)
    s_stride = get_int("malliavin.s_stride", 8, minimum=1)

    def get_tuple(key, default):
        if key not in raw:
            return default
        try:
            return tuple(float(v) for v in raw[key].split(",") if v.strip())
        except ValueError:
            errors.append(f"{key} must be a comma-separated list of numbers")
            return default

    epsilons = get_tuple("ladder.epsilons", ExperimentConfig.epsilons)
    if any(e <= 0 for e in epsilons) or list(epsilons) != sorted(epsilons, reverse=True):
        errors.append("ladder.epsilons must be positive and strictly decreasing")
    deltas = get_tuple("ladder.deltas", ExperimentConfig.deltas)
    hdot = get_float("ladder.hdot", get_float("cm.hdot", 1.0))
    functional = raw.get("cm.functional", "clipped_sup")
    if functional not in ("clipped_sup", "terminal"):
        errors.append("cm.functional must be clipped_sup or terminal")
    clip = get_float("cm.clip", 10.0, positive=True)
    payoff = raw.get("greeks.payoff", "identity")
    if payoff not in ("identity", "tanh", "digital"):
        errors.append("greeks.payoff must be identity, tanh or digital")
    strike = get_float("greeks.strike", 1.0)
    weight = raw.get("greeks.weight", "constant")
    if weight not in ("constant", "linear"):
        errors.append("greeks.weight must be constant or linear")
    fd_eps = get_float("greeks.fd_eps", 1e-3, positive=True)
    criteria = raw.get("verify.criteria", "")
    try:
        criteria = tuple(int(c) for c in criteria.split(",") if c.strip())
    except ValueError:
        errors.append("verify.criteria must be a comma-separated list of integers")
        criteria = ()

    model_params = {}
    for key, value in raw.items():
        if key.startswith("model."):
            try:
                model_params[key[len("model."):]] = float(value)
            except ValueError:
                errors.append(f"{key} must be a number, got {value!r}")

    if model in ZOO_NAMES and not errors:
        try:
            zoo_lookup(model, model_params)
        except MonosdeError as exc:
            errors.append(str(exc))

    if errors:
        return None, errors
    return (
        ExperimentConfig(
            experiment=experiment,
            model=model,
            model_params=model_params,
            grid_T=grid_T,
            grid_N=grid_N,
            scheme=scheme,
            newton_tol=newton_tol,
            newton_max_iter=newton_max_iter,
            seed=seed,
            n_paths=n_paths,
            s_stride=s_stride,
            epsilons=epsilons,
            deltas=deltas,
            hdot=hdot,
            functional=functional,
            clip=clip,
            payoff=payoff,
            strike=strike,
            weight=weight,
            fd_eps=fd_eps,
            criteria=criteria,
        ),
        [],
    )


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical config text; parse(emit(c)) reproduces c."""
    lines = [
        "schema_version = 1",
        f"experiment = {cfg.experiment}",
        f"model = {cfg.model}",
    ]
    for key in sorted(cfg.model_params):
        lines.append(f"model.{key} = {_fmt(cfg.model_params[key])}")
    lines += [
        f"grid.T = {_fmt(cfg.grid_T)}",
        f"grid.N = {cfg.grid_N}",
        f"scheme = {cfg.scheme}",
        f"scheme.newton_tol = {_fmt(cfg.newton_tol)}",
        f"scheme.newton_max_iter = {cfg.newton_max_iter}",
        f"seed = {cfg.seed}",
        f"n_paths = {cfg.n_paths}",
        f"malliavin.s_stride = {cfg.s_stride}",
        "ladder.epsilons = " + ",".join(_fmt(e) for e in cfg.epsilons),
        "ladder.deltas = " + ",".join(_fmt(d) for d in cfg.deltas),
        f"ladder.hdot = {_fmt(cfg.hdot)}",
        f"cm.functional = {cfg.functional}",
        f"cm.clip = {_fmt(cfg.clip)}",
        f"greeks.payoff = {cfg.payoff}",
        f"greeks.strike = {_fmt(cfg.strike)}",
        f"greeks.weight = {cfg.weight}",
        f"greeks.fd_eps = {_fmt(cfg.fd_eps)}",
    ]
    if cfg.criteria:
        lines.append("verify.criteria = " + ",".join(str(c) for c in cfg.criteria))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_sidecar(path, cfg: ExperimentConfig):
    with open(path, "w") as fh:
        fh.write(f"# monosde {__version__} artifact metadata\n")
        fh.write(emit_config(cfg))


def _run_simulate(cfg, out_dir, workers):
    spec = zoo_lookup(cfg.model, cfg.model_params)
    grid = make_grid(cfg.grid_T, cfg.grid_N)
    scheme = cfg.scheme_choice()
    rows = []
    for p in range(cfg.n_paths):
        w = sample_noise(grid, spec.m, cfg.seed, p)
        x = simulate(spec, grid, w, scheme=scheme)
        for i, t in enumerate(grid.nodes):
            rows.append(
                [str(p), _fmt(t)] + [_fmt(v) for v in x.values[i]]
            )
    header = ["path", "t"] + [f"x{k}" for k in range(spec.d)]
    _write_csv(os.path.join(out_dir, "paths.csv"), header, rows)
    return ["paths.csv"]


def _run_jacobian(cfg, out_dir, workers):
    spec = zoo_lookup(cfg.model, cfg.model_params)
    grid = make_grid(cfg.grid_T, cfg.grid_N)
    scheme = cfg.scheme_choice()
    w = sample_noise(grid, spec.m, cfg.seed, 0)
    bun = jacobian(spec, grid, w, scheme)
    eye = np.eye(spec.d)
    rows = []
    for i, t in enumerate(grid.nodes):
        defect = float(np.linalg.norm(bun.K[i] @ bun.J[i] - eye))
        rows.append(
            [_fmt(t)]
            + [_fmt(v) for v in bun.J[i].ravel()]
            + [_fmt(v) for v in bun.K[i].ravel()]
            + [_fmt(bun.D[i]), _fmt(defect)]
        )
    header = (
        ["t"]
        + [f"J{a}{b}" for a in range(spec.d) for b in range(spec.d)]
        + [f"K{a}{b}" for a in range(spec.d) for b in range(spec.d)]
        + ["wronskian", "inverse_defect"]
    )
    _write_csv(os.path.join(out_dir, "jacobian.csv"), header, rows)
    return ["jacobian.csv"]


def _run_malliavin(cfg, out_dir, workers):
    spec = zoo_lookup(cfg.model, cfg.model_params)
    grid = make_grid(cfg.grid_T, cfg.grid_N)
    scheme = cfg.scheme_choice()
    w = sample_noise(grid, spec.m, cfg.seed, 0)
    fld = malliavin_field(spec, grid, w, scheme, s_stride=cfg.s_stride)
    fld.export_csv(os.path.join(out_dir, "malliavin_field.csv"))
    t_idx = int(fld.s_indices[-1])
    mm = malliavin_matrix(fld, t_idx)
    rows = [
        [_fmt(mm.t)]
        + [_fmt(v) for v in mm.Q.ravel()]
        + [_fmt(mm.min_eigenvalue)]
    ]
    header = (
        ["t"]
        + [f"Q{a}{b}" for a in range(spec.d) for b in range(spec.d)]
        + ["min_eigenvalue"]
    )
    _write_csv(os.path.join(out_dir, "malliavin_matrix.csv"), header, rows)
    return ["malliavin_field.csv", "malliavin_matrix.csv"]


def _run_ladder(cfg, out_dir, workers):
    spec = zoo_lookup(cfg.model, cfg.model_params)
    grid = make_grid(cfg.grid_T, cfg.grid_N)
    h = CameronMartinPath.constant(grid, cfg.hdot, spec.m)
    lad = gateaux_ladder(
        spec,
        grid,
        cfg.scheme_choice(),
        h,
        cfg.epsilons,
        cfg.deltas,
        cfg.n_paths,
        cfg.seed,
        workers=workers,
    )
    rows = [
        [_fmt(e), _fmt(m), _fmt(s), _fmt(d), _fmt(p), str(c)]
        for (e, m, s, d, p, c) in lad.rows()
    ]
    header = ["epsilon", "mean_error", "stderr", "delta", "exceedance_prob", "diverged_count"]
    _write_csv(os.path.join(out_dir, "ladder.csv"), header, rows)
    return ["ladder.csv"]


def _run_cameron_martin(cfg, out_dir, workers):
    spec = zoo_lookup(cfg.model, cfg.model_params)
    grid = make_grid(cfg.grid_T, cfg.grid_N)
    h = CameronMartinPath.constant(grid, cfg.hdot, spec.m)
    functional = (
        clipped_sup_norm(cfg.clip) if cfg.functional == "clipped_sup" else terminal_value()
    )
    rep = cameron_martin_check(
        spec, grid, cfg.scheme_choice(), h, functional, cfg.n_paths, cfg.seed,
        workers=workers,
    )
    rows = [
        [
            _fmt(rep.lhs.mean[0]),
            _fmt(rep.lhs.stderr[0]),
            _fmt(rep.rhs.mean[0]),
            _fmt(rep.rhs.stderr[0]),
            _fmt(rep.z_score),
            str(rep.n_paths),
            str(rep.n_diverged),
        ]
    ]
    header = ["lhs_mean", "lhs_stderr", "rhs_mean", "rhs_stderr", "z_score", "n_paths", "diverged_count"]
    _write_csv(os.path.join(out_dir, "cameron_martin.csv"), header, rows)
    return ["cameron_martin.csv"]


def _run_greeks(cfg, out_dir, workers):
    spec = zoo_lookup(cfg.model, cfg.model_params)
    grid = make_grid(cfg.grid_T, cfg.grid_N)
    scheme = cfg.scheme_choice()
    payoff = {
        "identity": identity_payoff(),
        "tanh": tanh_payoff(),
        "digital": digital_payoff(cfg.strike),
    }[cfg.payoff]
    weight = constant_weight() if cfg.weight == "constant" else linear_weight()
    bel, fd = bel_fd_gradients(
        spec, grid, scheme, BELConfig(payoff, grid.N, weight), cfg.fd_eps,
        cfg.n_paths, cfg.seed, workers=workers,
    )
    rows = []
    for rep in (bel, fd):
        for k in range(spec.d):
            rows.append(
                [
                    rep.method,
                    str(k),
                    _fmt(rep.estimate.mean[k]),
                    _fmt(rep.estimate.stderr[k]),
                    str(rep.estimate.n_paths),
                    str(rep.n_diverged),
                ]
            )
    header = ["method", "component", "estimate", "stderr", "n_paths", "diverged_count"]
    _write_csv(os.path.join(out_dir, "greeks.csv"), header, rows)
    return ["greeks.csv"]


def _run_verify(cfg, out_dir, workers):
    from .acceptance import run_criteria

    results = run_criteria(cfg.criteria or None, workers=workers)
    rows = []
    width = max(len(r.name) for r in results)
    print(f"{'criterion':<{width + 6}} status")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.number:>2}] {r.name:<{width}} {status}  {r.detail}")
        rows.append([str(r.number), r.name, status, r.detail])
    _write_csv(
        os.path.join(out_dir, "verify.csv"),
        ["number", "criterion", "status", "detail"],
        rows,
    )
    ok = all(r.passed for r in results)
    return ["verify.csv"] if ok else None


_RUNNERS = {
    "simulate": _run_simulate,
    "jacobian": _run_jacobian,
    "malliavin": _run_malliavin,
    "ladder": _run_ladder,
    "cameron-martin": _run_cameron_martin,
    "greeks": _run_greeks,
    "verify": _run_verify,
}


#: Numerical failures at run time; every other MonosdeError is a parameter or
#: domain error.
_RUNTIME_ERRORS = (
    DivergenceError,
    NewtonFailureError,
    SingularDiffusionError,
    DegenerateWronskianError,
)


def run(cfg: ExperimentConfig, out_dir: str = ".", workers: int = 1) -> int:
    """Execute one experiment; writes artifacts plus a metadata sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        artifacts = _RUNNERS[cfg.experiment](cfg, out_dir, workers)
    except MonosdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _RUNTIME_ERRORS) else 1
    _write_sidecar(os.path.join(out_dir, f"{cfg.experiment}.meta"), cfg)
    if artifacts is None:
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="monosde",
        description="Monte Carlo toolkit for monotone-drift SDEs, their "
        "pathwise Jacobians, Malliavin derivatives, and sensitivity estimators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker threads (default from MONOSDE_WORKERS or 1); never changes results",
        )
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)

    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
    elif args.subcommand == "verify":
        text = (
            "schema_version = 1\nexperiment = verify\nmodel = ou\n"
            "grid.T = 1\ngrid.N = 64\n"
        )
    else:
        print("error: --config is required", file=sys.stderr)
        return 1

    cfg, errors = parse_config(text)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 1
    if cfg.experiment != args.subcommand:
        print(
            f"config error: experiment {cfg.experiment!r} does not match "
            f"subcommand {args.subcommand!r}",
            file=sys.stderr,
        )
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    workers = args.workers if args.workers is not None else default_workers()
    return run(cfg, args.out, workers)


if __name__ == "__main__":
    sys.exit(main())
