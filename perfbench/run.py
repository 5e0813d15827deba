"""The monosde benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass is a fresh interpreter (perfbench/passproc.py) that calls
`monosde.cli.main` on config files generated here from --seed, one
invocation after another; passes follow each other in a closed loop with
one caller.  Passes run until the next one would end after S seconds.  Every
artifact is checked (perfbench/workloads.py) and must repeat byte for byte
from pass to pass, since every pass uses the same seed.

With --trace 0 the last line of stdout carries the end-to-end metrics
(medians over the passes), their times in reference seconds: each pass and
set-up probe is bracketed by the calibration kernel of perfbench/calib.py,
which takes out the drift of the host's CPU speed.  With --trace 1 it
carries the per-layer metrics of perfbench/tracer.py (medians over traced
passes).  Earlier lines give the
provenance of the run and one line per pass.  The benchmark exits 2 without
a result when the monosde sources are not beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calib import Calibrated
from workloads import build

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: each run keeps its configs and artifacts in a subdirectory removed when it
#: ends; the spans of the first traced pass stay as <workload>.spans.tsv
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 7
#: a run must end within 180 s whatever --seconds says
DEADLINE_S = 165.0


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: otherwise OpenBLAS starts nproc threads of its own and
    # --workers 2 would run 2 * nproc threads
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for key in ("MONOSDE_WORKERS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(key, None)
    return env


def run_pass(argvs, trace, timeout, spans_out=None):
    """Run one pass; returns its report with "wall_s" and "spawn" added, or
    None when it did not finish or printed no report."""
    spec = json.dumps({"src": str(SRC), "argvs": argvs, "trace": trace,
                       "spans_out": spans_out})
    spawn = _clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passproc.py"), spec],
            env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    wall = _clock() - spawn
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    report = json.loads(lines[-1])
    if proc.stderr:
        sys.stderr.write(proc.stderr[-2000:])
    report.update(wall_s=wall, spawn=spawn)
    return report


def cli_argv(inv, cfg_path, out_dir):
    return [inv.subcommand, "--config", str(cfg_path), "--out", str(out_dir),
            "--workers", str(inv.workers)]


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def provenance(versions, usable, pass_cpus) -> dict:
    h = hashlib.sha256()
    for f in sorted((SRC / "monosde").rglob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(usable), "pass_cpus": sorted(pass_cpus),
            **versions, "git_sha": sha or None, "src_sha256": h.hexdigest()}


class Pass:
    """The invocations of one workload with their config files."""

    def __init__(self, invocations, seed, cfg_dir: Path):
        self.invocations = invocations
        self.configs = []
        for k, inv in enumerate(invocations):
            path = cfg_dir / f"{k}-{inv.subcommand}.conf"
            path.write_text(inv.config_text(seed))
            self.configs.append(path)

    def argvs(self, out_dir: Path):
        return [cli_argv(inv, cfg, out_dir / inv.subcommand)
                for inv, cfg in zip(self.invocations, self.configs)]

    def failures(self, report, out_dir: Path, ref_dir, seen: dict):
        """Indices of failed invocations; seen caches check results by the
        digests of the artifacts (equal bytes pass or fail alike)."""
        if report is None:
            return set(range(len(self.invocations)))
        failed = {k for k, rc in enumerate(report["codes"]) if rc != 0}
        digests = tuple(
            dir_digest(out_dir / inv.subcommand) if k not in failed else None
            for k, inv in enumerate(self.invocations)
        )
        if digests not in seen:
            bad = set()
            for k, inv in enumerate(self.invocations):
                if k in failed:
                    continue
                try:
                    errors = inv.check(out_dir, inv, ref_dir)
                except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                    errors = [f"artifact unreadable: {exc!r}"]
                for e in errors:
                    print(f"check failed: {inv.subcommand}: {e}", file=sys.stderr)
                if errors:
                    bad.add(k)
            seen[digests] = bad
        failed |= seen[digests]
        first = next(iter(seen))
        for k, (a, b) in enumerate(zip(first, digests)):
            if a is not None and b is not None and a != b:
                print(f"check failed: {self.invocations[k].subcommand}: "
                      "artifacts differ between passes with the same seed", file=sys.stderr)
                failed.add(k)
        return failed


def setup_probe(cfg_path: Path, out_dir: Path, timeout):
    """Seconds (measured, not scaled) from spawning an interpreter to the
    return of a `main` call whose run is one step of one path: import,
    config parse, zoo lookup."""
    report = run_pass([["simulate", "--config", str(cfg_path), "--out", str(out_dir)]],
                      0, timeout)
    if report is None or report["codes"] != [0]:
        return None, report
    return report["done"][0] - report["spawn"], report


def end_to_end(reports, setup, paths) -> dict:
    """The end-to-end metrics: medians over the passes and set-up probes,
    times in reference seconds."""
    walls = [r["ref_wall_s"] for r in reports]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "paths_per_s": {"value": statistics.median([paths / w for w in walls]),
                        "unit": "paths/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median([r["maxrss_kb"] / 1024.0 for r in reports]),
                        "unit": "MB"},
    }


def per_layer(reports) -> dict:
    """The per-layer metrics: the low median over traced passes of each
    figure of tracer.Tracer.summary, plus the pass's wall time and the part
    of it spent outside `main` (interpreter start, imports, exit)."""
    layers = {
        name: statistics.median_low([r["layers"][name] for r in reports])
        for name in reports[0]["layers"]
    }
    layers["trace.wall_s"] = statistics.median_low([r["wall_s"] for r in reports])
    layers["trace.outside_s"] = statistics.median_low(
        [r["wall_s"] - r["layers"]["trace.main_s"] for r in reports]
    )
    return {name: {"value": v, "unit": unit(name)} for name, v in layers.items()}


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_frac", "_per_step")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    workloads = build()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "monosde" / "cli.py").is_file():
        print(f"error: no monosde sources under {SRC}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    # as many CPUs as the passes use workers, for this process and the passes
    # it starts, so that the calibration kernel times the CPUs the passes
    # run on
    workers = max(inv.workers for inv in wl.invocations)
    usable = os.sched_getaffinity(0)
    pass_cpus = set(sorted(usable)[-workers:])
    os.sched_setaffinity(0, pass_cpus)
    started = _clock()

    def time_left():
        return DEADLINE_S - (_clock() - started)

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        probe_cfg = tmp / "probe.conf"
        probe_cfg.write_text(
            "schema_version = 1\nexperiment = simulate\nmodel = ginzburg_landau\n"
            f"grid.T = 1\ngrid.N = 1\nscheme = tamed_euler\nn_paths = 1\nseed = {args.seed}\n"
        )
        # warm-up: compiles the bytecode caches once, untimed
        _, warm = setup_probe(probe_cfg, tmp / "probe", time_left())
        if warm is None:
            print("error: the warm-up invocation failed", file=sys.stderr)
            return 1
        print(json.dumps({"provenance": provenance(warm["versions"], usable, pass_cpus),
                          "workload": wl.name, "seed": args.seed, "trace": args.trace}))

        calibrated = Calibrated(pass_cpus)
        setup = []
        if not args.trace:
            calibrated.start()
            for _ in range(SETUP_PROBES):
                s, _ = setup_probe(probe_cfg, tmp / "probe", time_left())
                if s is None:
                    print("error: a set-up probe failed", file=sys.stderr)
                    return 1
                setup.append(calibrated.scale(s))

        attempted = failed = 0
        seen = {}
        ref_dir = None
        if wl.reference:
            ref = Pass(wl.reference, args.seed, tmp)
            ref_dir = tmp / "ref"
            report = run_pass(ref.argvs(ref_dir), 0, max(1.0, time_left()))
            bad = ref.failures(report, ref_dir, None, {})
            attempted += len(wl.reference)
            failed += len(bad)

        job = Pass(wl.invocations, args.seed, tmp)
        reports = []
        t0 = _clock()
        calibrated.start()
        while True:
            out_dir = tmp / f"pass{len(reports)}"
            spans_out = str(WORK / f"{wl.name}.spans.tsv") if args.trace and not reports else None
            report = run_pass(job.argvs(out_dir), args.trace, max(1.0, time_left()), spans_out)
            bad = job.failures(report, out_dir, ref_dir, seen)
            attempted += len(wl.invocations)
            failed += len(bad)
            if report is None:
                break
            shutil.rmtree(out_dir, ignore_errors=True)
            report["ref_wall_s"] = calibrated.scale(report["wall_s"])
            report["step_s"] = _clock() - report["spawn"]
            reports.append(report)
            print(json.dumps({"pass": len(reports) - 1, "wall_s": report["wall_s"],
                              "ref_wall_s": report["ref_wall_s"],
                              "codes": report["codes"],
                              "peak_rss_mb": report["maxrss_kb"] / 1024.0,
                              **({"missing": report["missing"]} if args.trace else {})}))
            steps = [r["step_s"] for r in reports]
            next_end = _clock() + statistics.median(steps)
            if next_end - t0 > args.seconds or time_left() < 2 * max(steps):
                break

        if not reports:
            print("error: no pass completed", file=sys.stderr)
            return 1
        metrics = per_layer(reports) if args.trace else end_to_end(reports, setup, wl.paths)
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
