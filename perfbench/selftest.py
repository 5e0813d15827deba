"""Self-test of the benchmark's tracer on small sizes (about a minute).

    python3 perfbench/selftest.py [--seed N]

Checks that
  * the traced counts match what the configs imply: on mc_greeks
    solver.tamed_euler.path_steps = 3 n_paths N (one BEL and two FD
    simulations) and core.noise.paths = 2 n_paths (BEL and FD each draw the
    noise); on artifacts malliavin.field.cells = sum_j (N + 1 - s_j);
  * every count repeats exactly across two traced passes;
  * the artifacts of small passes pass the benchmark's own checks;
  * a wrap point that does not exist is reported as missing and the traced
    invocation still succeeds;
  * the metric names printed by run.py are exactly those of BENCHMARK.json.
It prints the tracing overhead, traced minus untraced wall time of a pass,
for every workload.  Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
import tracer
from workloads import SMALL, build

COUNT_UNITS = ("count", "bytes", "ratio")


def traced_pass(wl, seed, tmp: Path, tag: str):
    job = run.Pass(wl.invocations, seed, tmp)
    out = tmp / tag
    report = run.run_pass(job.argvs(out), 1, 120.0)
    ref_dir = tmp / "ref" if wl.reference else None
    failed = job.failures(report, out, ref_dir, {})
    return report, failed


def untraced_wall(wl, seed, tmp: Path):
    """The faster of two untraced passes."""
    job = run.Pass(wl.invocations, seed, tmp)
    reports = [run.run_pass(job.argvs(tmp / f"plain{k}"), 0, 120.0) for k in range(2)]
    return min(r["wall_s"] if r else float("inf") for r in reports)


def missing_is_reported(tmp: Path, seed: int) -> list:
    """Install the tracer with one wrap point that does not exist, in this
    process, and run a jacobian invocation through it."""
    sys.path.insert(0, str(run.SRC))
    import monosde.cli

    tracer.WRAPS[("variational", "_no_such_function")] = ("variational",)
    try:
        t = tracer.Tracer()
        t.install()
    finally:
        del tracer.WRAPS[("variational", "_no_such_function")]
    cfg = tmp / "missing.conf"
    cfg.write_text(
        "schema_version = 1\nexperiment = jacobian\nmodel = ginzburg_landau\n"
        f"grid.T = 1\ngrid.N = 64\nscheme = split_step_implicit\nseed = {seed}\n"
    )
    rc = t.call("cli.main", monosde.cli.main,
                ["jacobian", "--config", str(cfg), "--out", str(tmp / "missing")])
    errors = []
    if t.missing != ["variational._no_such_function"]:
        errors.append(f"missing = {t.missing}, want ['variational._no_such_function']")
    if rc != 0:
        errors.append(f"traced jacobian exited {rc}")
    if not t.summary()["variational.jacobian.s"] > 0:
        errors.append("variational.jacobian.s not recorded")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    errors = []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.WORK) as tmpname:
        tmp = Path(tmpname)
        reports = {}
        for name, wl in build(SMALL).items():
            if wl.reference:
                ref = run.Pass(wl.reference, args.seed, tmp)
                run.run_pass(ref.argvs(tmp / "ref"), 0, 120.0)
            passes = [traced_pass(wl, args.seed, tmp, f"traced{k}") for k in range(2)]
            if any(r is None or bad for r, bad in passes):
                errors.append(f"{name}: a traced pass failed or failed its checks")
                continue
            (a, _), (b, _) = passes
            if a["missing"]:
                errors.append(f"{name}: missing wrap points {a['missing']}")
            for metric, value in a["layers"].items():
                if run.unit(metric) in COUNT_UNITS and value != b["layers"][metric]:
                    errors.append(f"{name}: {metric} = {value} then {b['layers'][metric]}")
            plain = untraced_wall(wl, args.seed, tmp)
            traced = min(a["wall_s"], b["wall_s"])
            print(f"{name}: tracing overhead {traced - plain:+.3f} s "
                  f"(traced {traced:.3f} s, untraced {plain:.3f} s, "
                  f"{a['layers']['trace.spans']} spans)")
            reports[name] = a

        n, N = SMALL["greeks_paths"], SMALL["greeks_N"]
        g = reports["mc_greeks"]["layers"] if "mc_greeks" in reports else {}
        for metric, want in (("solver.tamed_euler.path_steps", 3 * n * N),
                             ("core.noise.paths", 2 * n)):
            if g.get(metric) != want:
                errors.append(f"mc_greeks: {metric} = {g.get(metric)}, want {want}")
        N = SMALL["path_N"]
        want = sum(N + 1 - s for s in range(0, N + 1, SMALL["s_stride"]))
        cells = reports.get("artifacts", {}).get("layers", {}).get("malliavin.field.cells")
        if cells != want:
            errors.append(f"artifacts: malliavin.field.cells = {cells}, want {want}")

        errors += missing_is_reported(tmp, args.seed)

    def units(metrics):
        return {name: m["unit"] for name, m in metrics.items()}

    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if "mc_greeks" in reports and units(run.per_layer([reports["mc_greeks"]])) != declared:
        errors.append("per_layer names or units differ from BENCHMARK.json")
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if units(run.end_to_end([{"ref_wall_s": 1.0, "maxrss_kb": 1}], [1.0], 1)) != declared:
        errors.append("end_to_end names or units differ from BENCHMARK.json")
    if set(build()) != {w["name"] for w in bench["workloads"]}:
        errors.append("workload names differ from BENCHMARK.json")

    for e in errors:
        print("FAIL:", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
