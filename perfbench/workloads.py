"""The benchmark's workloads: the CLI invocations of one pass and the checks
on their artifacts.

Every workload runs Ginzburg-Landau (dX = (X - X^3) dt + X dW, x0 = 1)
through `monosde.cli.main` with documented config keys only.  `seed` comes
from the benchmark's --seed.  The checks hold for any seed: each is either
an exact identity of the program or a statistical bound that a correct
program fails less than once in 10^5 passes.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

#: |BEL - FD| <= Z_BOUND * hypot(se_bel, se_fd).  Over 40 seeds at N = 256,
#: n_paths = 8192 the z-score had mean 0.31 and standard deviation 1.05
#: (FD has an O(eps^2) and the BEL weight an O(dt) bias), so a correct
#: program exceeds 5 with probability about 4e-6 per pass.
Z_BOUND = 5.0

_GL = {"model": "ginzburg_landau", "grid.T": "1"}


@dataclass
class Invocation:
    """One `monosde <subcommand> --config ... --out ...` call."""

    subcommand: str
    config: dict
    #: (pass_dir, invocation, ref_dir) -> list of errors; an invocation
    #: writes into <pass_dir>/<subcommand>
    check: Callable
    workers: int = 1

    @property
    def n_paths(self) -> int:
        return int(self.config.get("n_paths", 1))

    def config_text(self, seed: int) -> str:
        keys = {"schema_version": "1", "experiment": self.subcommand, **_GL,
                **self.config, "seed": str(seed)}
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


@dataclass
class Workload:
    name: str
    invocations: list
    #: invocations run once, untimed, before the passes; their artifacts are
    #: what the pass artifacts are compared against
    reference: list = field(default_factory=list)

    @property
    def paths(self) -> int:
        """Paths simulated per pass (the numerator of paths_per_s)."""
        return sum(inv.n_paths for inv in self.invocations)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _rows(pass_dir, subcommand, name):
    with open(os.path.join(pass_dir, subcommand, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


def check_greeks(pass_dir, inv, ref_dir=None):
    errors = []
    rows = {r["method"]: r for r in _rows(pass_dir, "greeks", "greeks.csv")}
    if set(rows) != {"bel", "fd"}:
        return [f"greeks.csv methods {sorted(rows)} != ['bel', 'fd']"]
    est = {}
    for method, r in rows.items():
        mean, se = float(r["estimate"]), float(r["stderr"])
        if not _finite(mean, se):
            errors.append(f"{method} estimate or stderr not finite")
        if int(r["diverged_count"]) != 0:
            errors.append(f"{method} diverged_count = {r['diverged_count']}")
        if int(r["n_paths"]) != inv.n_paths:
            errors.append(f"{method} n_paths = {r['n_paths']} != {inv.n_paths}")
        est[method] = (mean, se)
    if not errors:
        (b, sb), (f, sf) = est["bel"], est["fd"]
        z = abs(b - f) / math.hypot(sb, sf)
        if not z <= Z_BOUND:
            errors.append(f"|BEL - FD| = {abs(b - f):.3g} is {z:.2f} stderrs > {Z_BOUND}")
    return errors


def check_greeks_same_as_reference(pass_dir, inv, ref_dir):
    errors = check_greeks(pass_dir, inv)
    with open(os.path.join(pass_dir, "greeks", "greeks.csv"), "rb") as a, open(
        os.path.join(ref_dir, "greeks", "greeks.csv"), "rb"
    ) as b:
        if a.read() != b.read():
            errors.append("greeks.csv differs from the workers = 1 artifact")
    return errors


def check_ladder(pass_dir, inv, ref_dir=None):
    """No divergences, and the mean error does not grow as epsilon shrinks
    by more than two combined stderrs (the rule of acceptance._ladder_check)."""
    errors = []
    per_eps = {}
    for r in _rows(pass_dir, "ladder", "ladder.csv"):
        if int(r["diverged_count"]) != 0:
            errors.append(f"epsilon {r['epsilon']}: diverged_count = {r['diverged_count']}")
        per_eps[float(r["epsilon"])] = (float(r["mean_error"]), float(r["stderr"]))
    expected = sorted(float(e) for e in inv.config["ladder.epsilons"].split(","))
    if sorted(per_eps) != expected:
        return errors + [f"ladder.csv epsilons {sorted(per_eps)} != {expected}"]
    ladder = [per_eps[e] for e in sorted(per_eps, reverse=True)]
    for (m0, s0), (m1, s1) in zip(ladder, ladder[1:]):
        if not (_finite(m0, m1, s0, s1) and m1 <= m0 + 2.0 * math.hypot(s0, s1)):
            errors.append(f"mean error grows from {m0:.6g} to {m1:.6g}")
    return errors


def _n_nodes(inv) -> int:
    return int(inv.config["grid.N"]) + 1


def check_paths(pass_dir, inv, ref_dir=None):
    rows = _rows(pass_dir, "simulate", "paths.csv")
    want = inv.n_paths * _n_nodes(inv)
    errors = [] if len(rows) == want else [f"paths.csv has {len(rows)} rows, want {want}"]
    if not all(_finite(float(r["x0"])) for r in rows):
        errors.append("paths.csv has a non-finite state")
    return errors


def check_malliavin(pass_dir, inv, ref_dir=None):
    """Row count sum_j (N + 1 - s_j), and D_s X(s) = sigma X(s) exactly on
    the diagonal, with X from path 0 of the simulate artifact (same seed,
    scheme and grid, so the same path)."""
    n_nodes = _n_nodes(inv)
    stride = int(inv.config["malliavin.s_stride"])
    sigma = 1.0  # the zoo default of ginzburg_landau
    want = sum(n_nodes - s for s in range(0, n_nodes, stride))
    rows = _rows(pass_dir, "malliavin", "malliavin_field.csv")
    errors = [] if len(rows) == want else [
        f"malliavin_field.csv has {len(rows)} rows, want {want}"
    ]
    x_path0 = {
        r["t"]: float(r["x0"])
        for r in _rows(pass_dir, "simulate", "paths.csv")
        if r["path"] == "0"
    }
    diagonal = [r for r in rows if r["s"] == r["t"]]
    if len(diagonal) != len(range(0, n_nodes, stride)):
        errors.append(f"{len(diagonal)} diagonal entries, want one per s")
    bad = [r["s"] for r in diagonal if float(r["value"]) != sigma * x_path0.get(r["t"], math.nan)]
    if bad:
        errors.append(f"D_s X(s) != sigma X(s) at {len(bad)} s-nodes, first s = {bad[0]}")
    if not all(_finite(float(r["value"])) for r in rows):
        errors.append("malliavin_field.csv has a non-finite entry")
    return errors


def check_jacobian(pass_dir, inv, ref_dir=None):
    rows = _rows(pass_dir, "jacobian", "jacobian.csv")
    errors = [] if len(rows) == _n_nodes(inv) else [
        f"jacobian.csv has {len(rows)} rows, want {_n_nodes(inv)}"
    ]
    if not all(float(r["wronskian"]) > 0 for r in rows):
        errors.append("wronskian <= 0 (or NaN) at some node")
    if not all(_finite(float(r["inverse_defect"])) for r in rows):
        errors.append("inverse_defect not finite at some node")
    return errors


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

#: Sizes of the full benchmark; the tracer self-test shrinks them.
#: simulate and malliavin share one grid (path_N), because the malliavin check
#: reads path 0 of the simulate artifact.
FULL = {"greeks_paths": 8192, "greeks_N": 256, "ladder_paths": 1024,
        "ladder_N": 256, "sim_paths": 8, "path_N": 1024, "s_stride": 8,
        "jac_N": 1024}
SMALL = {"greeks_paths": 2048, "greeks_N": 64, "ladder_paths": 1024,
         "ladder_N": 64, "sim_paths": 4, "path_N": 64, "s_stride": 4,
         "jac_N": 256}


def _greeks(sz, workers=1, check=check_greeks) -> Invocation:
    return Invocation(
        "greeks",
        {"scheme": "tamed_euler", "grid.N": sz["greeks_N"],
         "n_paths": sz["greeks_paths"], "greeks.payoff": "tanh"},
        check,
        workers,
    )


def build(sizes: Optional[dict] = None) -> dict:
    """Workloads by name."""
    sz = sizes or FULL
    ladder = Invocation(
        "ladder",
        {"scheme": "split_step_implicit", "grid.N": sz["ladder_N"],
         "n_paths": sz["ladder_paths"],
         "ladder.epsilons": "0.5,0.25,0.125,0.0625",
         "ladder.deltas": "0.1,0.01,0.001", "ladder.hdot": "1"},
        check_ladder,
    )
    simulate = Invocation(
        "simulate",
        {"scheme": "tamed_euler", "grid.N": sz["path_N"], "n_paths": sz["sim_paths"]},
        check_paths,
    )
    malliavin = Invocation(
        "malliavin",
        {"scheme": "tamed_euler", "grid.N": sz["path_N"], "malliavin.s_stride": sz["s_stride"]},
        check_malliavin,
    )
    jacobian = Invocation(
        "jacobian",
        {"scheme": "split_step_implicit", "grid.N": sz["jac_N"]},
        check_jacobian,
    )
    return {
        w.name: w
        for w in (
            Workload("mc_greeks", [_greeks(sz)]),
            Workload(
                "mc_greeks_w2",
                [_greeks(sz, 2, check_greeks_same_as_reference)],
                reference=[_greeks(sz)],
            ),
            Workload("mc_ladder_implicit", [ladder]),
            Workload("artifacts", [simulate, malliavin, jacobian]),
        )
    }
