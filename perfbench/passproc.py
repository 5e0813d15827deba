"""One pass: a fresh interpreter that calls `monosde.cli.main` once per
invocation, in order, and prints one JSON line describing what happened.

    python3 perfbench/passproc.py SPEC_JSON

SPEC_JSON holds "src" (the directory that contains the monosde package),
"argvs" (one argument list per `main` call), "trace" (0 or 1) and
"spans_out" (a file for the raw spans, or null).  The parent measures the
pass's wall time; this process reports its exit codes, the CLOCK_MONOTONIC
reading after each `main` returned (comparable with the parent's), its peak
RSS and, when traced, the per-layer figures.
"""

import json
import resource
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kb() -> int:
    """High-water RSS of this process's own address space.  ru_maxrss is not
    used: Linux carries it over exec from the parent that forked us."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _versions() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import monosde.cli

    codes, done = [], []
    for argv in spec["argvs"]:
        try:
            if tracer is None:
                rc = monosde.cli.main(argv)
            else:
                rc = tracer.call("cli.main", monosde.cli.main, argv)
        except SystemExit as exc:  # argparse rejects an argument list
            rc = exc.code if isinstance(exc.code, int) else 1
        codes.append(rc)
        done.append(_clock())
    report = {
        "codes": codes,
        "done": done,
        "maxrss_kb": _peak_rss_kb(),
        "versions": _versions(),
    }
    if tracer is not None:
        report["missing"] = tracer.missing
        report["layers"] = tracer.summary()
        if spec["spans_out"]:
            tracer.write_spans(spec["spans_out"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
