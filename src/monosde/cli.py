"""Experiment configuration, orchestration, and CSV emission.

Config format: flat ``key = value`` lines, ``#`` comments, explicit
``schema_version``.  Unknown keys are rejected and all validation errors are
reported together.  Every artifact is written with 17-significant-digit
formatting plus a metadata sidecar (the canonical config echo, library
version, and seed), sufficient to reproduce it bit-identically; artifacts
contain no timestamps.

Exit codes: 0 success; 1 invalid config; 1 or 2 for an error of the library
raised while running, by its class (see monosde.errors); 3 acceptance
failure (verify).  Errors of the library reach stderr as one ``error: ...``
line, never as a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core import (
    CameronMartinPath,
    format_block,
    make_grid,
    sample_noise,
)
from .errors import MonosdeError
from .models import ZOO_NAMES, zoo_lookup
from .solver import SCHEMES, SchemeChoice, simulate_paths
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


def _row(*values) -> list:
    """CSV fields: text as it is, integers with str, other numbers with _fmt."""
    return [v if isinstance(v, str) else str(v) if isinstance(v, int) else _fmt(v) for v in values]


class _Reader(NamedTuple):
    """How a config value is read from its text and echoed back to it."""

    parse: Callable  # text -> value; raises ValueError on bad text
    show: Callable  # value -> text; parse(show(v)) == v
    expect: str  # what bad text must be instead


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(text)
    return v


def _list_of(parse):
    return lambda text: tuple(parse(v) for v in text.split(",") if v.strip())


_TEXT = _Reader(str, str, "text")
_INT = _Reader(int, str, "an integer")
_NUMBER = _Reader(_finite, _fmt, "a finite number")
_NUMBERS = _Reader(
    _list_of(_finite), lambda v: ",".join(map(_fmt, v)),
    "a comma-separated list of finite numbers",
)
_INTS = _Reader(
    _list_of(int), lambda v: ",".join(map(str, v)), "a comma-separated list of integers"
)


def _key(key, read=_TEXT, default=MISSING, **rules):
    """A field read from the config line `key = text`; no default means the
    key is required.  rules: choices, positive (> 0), minimum, decreasing
    (strictly), aliases (other spellings of the key, read if it is absent)."""
    return field(default=default, metadata={"key": key, "read": read, **rules})


@dataclass
class ExperimentConfig:
    """The config schema: every key but schema_version and model.*, in the
    order of the sidecar echo."""

    experiment: str = _key("experiment", choices=EXPERIMENTS)
    model: str = _key("model", choices=ZOO_NAMES)
    model_params: dict  # model.<name> = number, each read as _NUMBER
    grid_T: float = _key("grid.T", _NUMBER, positive=True)
    grid_N: int = _key("grid.N", _INT, minimum=1)
    scheme: str = _key("scheme", default="tamed_euler", choices=SCHEMES)
    newton_tol: float = _key("scheme.newton_tol", _NUMBER, 1e-10, positive=True)
    newton_max_iter: int = _key("scheme.newton_max_iter", _INT, 50, minimum=1)
    seed: int = _key("seed", _INT, 0, minimum=0)
    n_paths: int = _key("n_paths", _INT, 1, minimum=1)
    s_stride: int = _key("malliavin.s_stride", _INT, 8, minimum=1)
    epsilons: tuple = _key(
        "ladder.epsilons", _NUMBERS,
        (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125),
        positive=True, decreasing=True,
    )
    deltas: tuple = _key("ladder.deltas", _NUMBERS, (0.1, 0.01, 0.001))
    hdot: float = _key("ladder.hdot", _NUMBER, 1.0, aliases=("cm.hdot",))
    functional: str = _key(
        "cm.functional", default="clipped_sup", choices=("clipped_sup", "terminal")
    )
    clip: float = _key("cm.clip", _NUMBER, 10.0, positive=True)
    payoff: str = _key(
        "greeks.payoff", default="identity", choices=("identity", "tanh", "digital")
    )
    strike: float = _key("greeks.strike", _NUMBER, 1.0)
    weight: str = _key("greeks.weight", default="constant", choices=("constant", "linear"))
    fd_eps: float = _key("greeks.fd_eps", _NUMBER, 1e-3, positive=True)
    criteria: tuple = _key("verify.criteria", _INTS, ())  # echoed only when set

    def scheme_choice(self) -> SchemeChoice:
        return SchemeChoice(self.scheme, self.newton_tol, self.newton_max_iter)


_KEYED = [f for f in fields(ExperimentConfig) if "key" in f.metadata]

_REQUIRED = ("schema_version",) + tuple(
    f.metadata["key"] for f in _KEYED if f.default is MISSING
)

_KNOWN_KEYS = {"schema_version"}.union(
    *({f.metadata["key"], *f.metadata.get("aliases", ())} for f in _KEYED)
)


def _read(key, text, meta, errors):
    """The value of `key = text` under a field declaration's reader and rules;
    what is wrong with it is appended to errors."""
    read = meta["read"]
    try:
        value = read.parse(text)
    except ValueError:
        errors.append(f"{key} must be {read.expect}, got {text!r}")
        return None
    items = value if isinstance(value, tuple) else (value,)
    if "choices" in meta and value not in meta["choices"]:
        errors.append(f"{key} must be one of {', '.join(meta['choices'])}; got {value!r}")
    if meta.get("positive") and not all(v > 0 for v in items):
        errors.append(f"{key} must be > 0")
    if "minimum" in meta and not all(v >= meta["minimum"] for v in items):
        errors.append(f"{key} must be >= {meta['minimum']}")
    if meta.get("decreasing") and not all(a > b for a, b in zip(items, items[1:])):
        errors.append(f"{key} must be strictly decreasing")
    return value


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

    if raw["schema_version"] != "1":
        errors.append("schema_version must be 1")
    values = {}
    for f in _KEYED:
        # the key itself wins over its aliases; every spelling given is checked
        for key in reversed((f.metadata["key"], *f.metadata.get("aliases", ()))):
            if key in raw:
                values[f.name] = _read(key, raw[key], f.metadata, errors)
    values["model_params"] = {
        key[len("model."):]: _read(key, value, {"read": _NUMBER}, errors)
        for key, value in raw.items()
        if key.startswith("model.")
    }

    if not errors:
        try:
            zoo_lookup(values["model"], values["model_params"])
        except MonosdeError as exc:
            errors.append(str(exc))
    if errors:
        return None, errors
    return ExperimentConfig(**values), []


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical config text; parse(emit(c)) reproduces c."""
    lines = ["schema_version = 1"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "model_params":
            lines += [f"model.{k} = {_fmt(value[k])}" for k in sorted(value)]
        elif f.name != "criteria" or value:
            lines.append(f"{f.metadata['key']} = {f.metadata['read'].show(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _line(fields) -> str:
    return ",".join(fields) + "\n"


def _write_csv(path, header, blocks):
    """The header line, then each block of whole lines as it comes."""
    with open(path, "w", newline="") as fh:
        fh.write(_line(header))
        for block in blocks:
            fh.write(block)


def _write_sidecar(path, cfg: ExperimentConfig):
    with open(path, "w") as fh:
        fh.write(f"# monosde {__version__} artifact metadata\n")
        fh.write(emit_config(cfg))


def _run_simulate(cfg, spec, grid, out_dir, workers):
    values = simulate_paths(spec, grid, cfg.scheme_choice(), cfg.seed, cfg.n_paths, workers)
    header = ["path", "t"] + [f"x{k}" for k in range(spec.d)]
    t = grid.nodes
    row_fmt = _line(["%.17g"] * (spec.d + 1))
    blocks = (
        format_block(np.column_stack([t, x]), f"{p},{row_fmt}") for p, x in enumerate(values)
    )
    _write_csv(os.path.join(out_dir, "paths.csv"), header, blocks)


def _run_jacobian(cfg, spec, grid, out_dir, workers):
    scheme = cfg.scheme_choice()
    w = sample_noise(grid, spec.m, cfg.seed, 0)
    bun = jacobian(spec, w, scheme)
    n = grid.N + 1
    defect = np.linalg.norm(bun.K @ bun.J - np.eye(spec.d), axis=(1, 2))
    block = np.column_stack(
        [grid.nodes, bun.J.reshape(n, -1), bun.K.reshape(n, -1), bun.D, defect]
    )
    header = (
        ["t"]
        + [f"J{a}{b}" for a in range(spec.d) for b in range(spec.d)]
        + [f"K{a}{b}" for a in range(spec.d) for b in range(spec.d)]
        + ["wronskian", "inverse_defect"]
    )
    text = format_block(block, _line(["%.17g"] * len(header)))
    _write_csv(os.path.join(out_dir, "jacobian.csv"), header, [text])


def _run_malliavin(cfg, spec, grid, out_dir, workers):
    scheme = cfg.scheme_choice()
    w = sample_noise(grid, spec.m, cfg.seed, 0)
    fld = malliavin_field(spec, w, scheme, s_stride=cfg.s_stride)
    mm = malliavin_matrix(fld, int(fld.s_indices[-1]))
    fld.export_csv(os.path.join(out_dir, "malliavin_field.csv"))
    rows = [_row(mm.t, *mm.Q.ravel(), mm.min_eigenvalue)]
    header = (
        ["t"]
        + [f"Q{a}{b}" for a in range(spec.d) for b in range(spec.d)]
        + ["min_eigenvalue"]
    )
    _write_csv(os.path.join(out_dir, "malliavin_matrix.csv"), header, map(_line, rows))


def _run_ladder(cfg, spec, grid, out_dir, workers):
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
    rows = [_row(*r) for r in lad.rows()]
    header = ["epsilon", "mean_error", "stderr", "delta", "exceedance_prob", "diverged_count"]
    _write_csv(os.path.join(out_dir, "ladder.csv"), header, map(_line, rows))


def _run_cameron_martin(cfg, spec, grid, out_dir, workers):
    h = CameronMartinPath.constant(grid, cfg.hdot, spec.m)
    functional = (
        clipped_sup_norm(cfg.clip) if cfg.functional == "clipped_sup" else terminal_value()
    )
    rep = cameron_martin_check(
        spec, grid, cfg.scheme_choice(), h, functional, cfg.n_paths, cfg.seed,
        workers=workers,
    )
    rows = [
        _row(rep.lhs.mean[0], rep.lhs.stderr[0], rep.rhs.mean[0], rep.rhs.stderr[0],
             rep.z_score, rep.n_paths, rep.n_diverged)
    ]
    header = ["lhs_mean", "lhs_stderr", "rhs_mean", "rhs_stderr", "z_score", "n_paths", "diverged_count"]
    _write_csv(os.path.join(out_dir, "cameron_martin.csv"), header, map(_line, rows))


def _run_greeks(cfg, spec, grid, out_dir, workers):
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
    rows = [
        _row(rep.method, k, rep.estimate.mean[k], rep.estimate.stderr[k],
             rep.estimate.n_paths, rep.n_diverged)
        for rep in (bel, fd)
        for k in range(spec.d)
    ]
    header = ["method", "component", "estimate", "stderr", "n_paths", "diverged_count"]
    _write_csv(os.path.join(out_dir, "greeks.csv"), header, map(_line, rows))


def _run_verify(cfg, spec, grid, out_dir, workers):
    from .acceptance import run_criteria

    results = run_criteria(cfg.criteria or None, workers=workers)
    rows = []
    width = max(len(r.name) for r in results)
    print(f"{'criterion':<{width + 6}} status")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.number:>2}] {r.name:<{width}} {status}  {r.detail}")
        rows.append(_row(r.number, r.name, status, r.detail))
    _write_csv(
        os.path.join(out_dir, "verify.csv"),
        ["number", "criterion", "status", "detail"],
        map(_line, rows),
    )
    return 0 if all(r.passed for r in results) else 3


_RUNNERS = {
    "simulate": _run_simulate,
    "jacobian": _run_jacobian,
    "malliavin": _run_malliavin,
    "ladder": _run_ladder,
    "cameron-martin": _run_cameron_martin,
    "greeks": _run_greeks,
    "verify": _run_verify,
}


def run(cfg: ExperimentConfig, out_dir: str = ".", workers: int = 1) -> int:
    """Execute one experiment; writes artifacts plus a metadata sidecar.
    Returns the exit code: 0; 3 when verify fails a criterion; 1 or 2 for a
    MonosdeError, by its class (see monosde.errors)."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        spec = zoo_lookup(cfg.model, cfg.model_params)
        grid = make_grid(cfg.grid_T, cfg.grid_N)
        code = _RUNNERS[cfg.experiment](cfg, spec, grid, out_dir, workers)
    except MonosdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, RuntimeError) else 1
    _write_sidecar(os.path.join(out_dir, f"{cfg.experiment}.meta"), cfg)
    return code or 0


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
            default=1,
            help="worker processes (default 1); never changes results",
        )
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 1

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
    return run(cfg, args.out, args.workers)


if __name__ == "__main__":
    sys.exit(main())
