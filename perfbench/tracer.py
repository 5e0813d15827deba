"""Outside-in tracing of monosde for the benchmark's traced runs.

The tracer wraps, from outside the package, the module-level functions
through which each monosde module calls the next, and the model callbacks of
the spec that `monosde.cli.zoo_lookup` returns.  Modules import each other's
functions by name (`from .solver import simulate_batch`), so a function is
replaced in every module that holds a reference to it.  A wrap point that no
longer exists is listed in `missing` and the run goes on.

Every wrapped call records one span (id, name, parent id, start, end, info);
spans stay in memory until the pass ends.  A span's self time is its duration
minus the union of its children's intervals, so chunks that ran in parallel
on the pool are not counted twice against `run_chunks`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

#: (defining module, function) -> modules whose global of that name is
#: replaced.  The span is named "<layer>.<function>", the layer being the
#: defining module.
WRAPS = {
    ("core", "sample_increments"): ("solver", "greeks", "shiftlab"),
    ("core", "sample_noise"): ("cli",),
    ("core", "run_chunks"): ("solver", "greeks", "shiftlab"),
    ("core", "mc_estimate"): ("solver", "greeks", "shiftlab"),
    ("models", "zoo_lookup"): ("cli",),
    ("solver", "simulate_batch"): ("solver", "variational", "malliavin", "greeks", "shiftlab"),
    ("solver", "simulate"): ("cli",),
    ("variational", "jacobian"): ("cli",),
    ("variational", "_jacobian_arrays"): ("variational",),
    ("greeks", "bel_gradient"): ("cli",),
    ("greeks", "fd_gradient"): ("cli",),
    ("greeks", "_bel_weights_batch"): ("greeks",),
    ("malliavin", "malliavin_field"): ("cli",),
    ("malliavin", "malliavin_matrix"): ("cli",),
    ("malliavin", "_field_batch"): ("malliavin",),
    ("malliavin", "_directional_batch"): ("malliavin", "shiftlab"),
    ("shiftlab", "gateaux_ladder"): ("cli",),
    ("cli", "_write_csv"): ("cli",),
    ("cli", "_write_sidecar"): ("cli",),
}

#: Model callbacks wrapped on the CoefficientField of each looked-up spec.
CALLBACKS = ("drift", "diffusion", "grad_drift", "grad_diffusion")

SCHEMES = ("tamed_euler", "split_step_implicit")
LAYERS = ("core", "models", "solver", "variational", "greeks", "malliavin",
          "shiftlab", "cli")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


#: What a span records about its call, by span name: (args, kwargs, result)
#: -> dict of counts.
INFO = {
    "core.sample_increments": lambda a, k, r: {"paths": int(_arg(a, k, 4, "count"))},
    "core.sample_noise": lambda a, k, r: {"paths": 1},
    "solver.simulate_batch": lambda a, k, r: {
        "scheme": _arg(a, k, 4, "scheme").kind,
        "paths": r.values.shape[0],
        "steps": r.values.shape[1] - 1,
        "diverged": int(np.count_nonzero(r.diverged)),
    },
    "malliavin._field_batch": lambda a, k, r: {
        "cells": r.shape[0] * int(np.sum(_arg(a, k, 1, "out").grid.N + 1
                                         - np.asarray(_arg(a, k, 3, "s_idx"))))
    },
    "malliavin.MalliavinField.export_csv": lambda a, k, r: _file_bytes(_arg(a, k, 1, "path")),
    "cli._write_csv": lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")),
    "cli._write_sidecar": lambda a, k, r: _file_bytes(_arg(a, k, 0, "path")),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, parent id, start, end, info or None)
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, /, *args, parent=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; parent defaults to the
        innermost open span of this thread."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        stack.append((sid, name))
        info_fn = INFO.get(name)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans.append((sid, name, parent, t0, perf_counter(), None))
            raise
        finally:
            stack.pop()
        info = info_fn(args, kwargs, result) if info_fn else None
        self.spans.append((sid, name, parent, t0, perf_counter(), info))
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _wrap_run_chunks(self, name, run_chunks):
        """Each chunk becomes a span "<caller>.chunk" under the run_chunks
        span, also when it runs on a pool thread."""

        @functools.wraps(run_chunks)
        def traced(fn, *args, **kwargs):
            stack = self._stack()
            chunk_name = (stack[-1][1] if stack else "?") + ".chunk"

            def inner(*a, **k):
                sid = self._stack()[-1][0]  # the run_chunks span
                return run_chunks(
                    lambda *ca, **ck: self.call(chunk_name, fn, *ca, parent=sid, **ck), *a, **k
                )

            return self.call(name, inner, *args, **kwargs)

        return traced

    def _wrap_zoo_lookup(self, name, zoo_lookup):
        @functools.wraps(zoo_lookup)
        def traced(*args, **kwargs):
            spec = self.call(name, zoo_lookup, *args, **kwargs)
            fld = spec.field
            present = [cb for cb in CALLBACKS if callable(getattr(fld, cb, None))]
            for cb in CALLBACKS:
                if cb not in present and f"models.CoefficientField.{cb}" not in self.missing:
                    self.missing.append(f"models.CoefficientField.{cb}")
            spec.field = dataclasses.replace(
                fld, **{cb: self.wrap(f"models.{cb}", getattr(fld, cb)) for cb in present}
            )
            return spec

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every wrap point; records the ones that do not exist."""
        mods = {}

        def module(short):
            if short not in mods:
                mods[short] = importlib.import_module(f"monosde.{short}")
            return mods[short]

        for (home, fname), consumers in WRAPS.items():
            name = f"{home}.{fname}"
            original = getattr(module(home), fname, None)
            if original is None:
                self.missing.append(name)
                continue
            if fname == "run_chunks":
                traced = self._wrap_run_chunks(name, original)
            elif fname == "zoo_lookup":
                traced = self._wrap_zoo_lookup(name, original)
            else:
                traced = self.wrap(name, original)
            for consumer in consumers:
                mod = module(consumer)
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, traced)
                else:
                    self.missing.append(f"{consumer}.{fname}")

        cls = getattr(module("malliavin"), "MalliavinField", None)
        if cls is None or not callable(getattr(cls, "export_csv", None)):
            self.missing.append("malliavin.MalliavinField.export_csv")
        else:
            cls.export_csv = self.wrap("malliavin.MalliavinField.export_csv", cls.export_csv)

        # run() dispatches through this table, not through the module globals
        runners = getattr(module("cli"), "_RUNNERS", None)
        if not isinstance(runners, dict):
            self.missing.append("cli._RUNNERS")
        else:
            for key, fn in runners.items():
                runners[key] = self.wrap(f"cli.{fn.__name__}", fn)

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Self time of every span, keyed by span id."""
        children = defaultdict(list)
        for sid, _, parent, t0, t1, _ in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, _, t0, t1, _ in self.spans:
            covered, end = 0.0, -np.inf
            for c0, c1 in sorted(children.get(sid, ())):
                if c1 > end:
                    covered += c1 - max(c0, end)
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def summary(self) -> dict:
        """The per-layer figures of this pass, by metric name."""
        own = self.self_times()
        self_s = defaultdict(float)
        dur_s = defaultdict(float)
        calls = defaultdict(int)
        count = defaultdict(int)
        implicit = set()
        drift_parents = defaultdict(int)
        layer_s = defaultdict(float)
        for sid, name, parent, t0, t1, info in self.spans:
            self_s[name] += own[sid]
            dur_s[name] += t1 - t0
            calls[name] += 1
            layer_s[name.split(".", 1)[0]] += own[sid]
            if name == "models.drift":
                drift_parents[parent] += 1
            if not info:
                continue
            if name == "solver.simulate_batch":
                scheme = info["scheme"]
                self_s[f"solver.{scheme}"] += own[sid]
                count[f"solver.{scheme}.path_steps"] += info["paths"] * info["steps"]
                count[f"solver.{scheme}.steps"] += info["steps"]
                if scheme == "split_step_implicit":
                    implicit.add(sid)
            for key, value in info.items():
                if key != "scheme":
                    count[f"{name}.{key}"] += value

        newton_drift = sum(drift_parents[sid] for sid in implicit)
        implicit_steps = count["solver.split_step_implicit.steps"]
        paths = count["solver.simulate_batch.paths"]
        diverged = count["solver.simulate_batch.diverged"]
        return {
            "core.noise.s": self_s["core.sample_increments"] + self_s["core.sample_noise"],
            "core.noise.paths": count["core.sample_increments.paths"]
            + count["core.sample_noise.paths"],
            "core.run_chunks.s": self_s["core.run_chunks"],
            "core.chunks": sum(c for n, c in calls.items() if n.endswith(".chunk")),
            "core.reduce.s": self_s["core.mc_estimate"],
            "models.s": sum(dur_s[f"models.{cb}"] for cb in CALLBACKS),
            **{f"models.{cb}.evals": calls[f"models.{cb}"] for cb in CALLBACKS},
            **{f"solver.{s}.s": self_s[f"solver.{s}"] for s in SCHEMES},
            **{f"solver.{s}.path_steps": count[f"solver.{s}.path_steps"] for s in SCHEMES},
            "solver.calls": calls["solver.simulate_batch"],
            "solver.newton.drift_evals_per_step": (
                newton_drift / implicit_steps if implicit_steps else 0.0
            ),
            "solver.diverged_paths": diverged,
            "solver.useful_frac": (paths - diverged) / paths if paths else 0.0,
            "variational.jacobian.s": self_s["variational._jacobian_arrays"]
            + self_s["variational.jacobian"],
            "greeks.bel_weights.s": self_s["greeks._bel_weights_batch"],
            "greeks.bel.s": dur_s["greeks.bel_gradient"],
            "greeks.fd.s": dur_s["greeks.fd_gradient"],
            "malliavin.field.s": self_s["malliavin._field_batch"]
            + self_s["malliavin.malliavin_field"],
            "malliavin.field.cells": count["malliavin._field_batch.cells"],
            "malliavin.export.s": self_s["malliavin.MalliavinField.export_csv"],
            "malliavin.export.bytes": count["malliavin.MalliavinField.export_csv.bytes"],
            "malliavin.directional.s": self_s["malliavin._directional_batch"],
            "shiftlab.ladder.s": self_s["shiftlab.gateaux_ladder"]
            + self_s["shiftlab.gateaux_ladder.chunk"],
            "cli.runner.s": sum(v for n, v in self_s.items() if n.startswith("cli._run_")),
            "cli.write.s": dur_s["cli._write_csv"] + dur_s["cli._write_sidecar"],
            "cli.write.bytes": count["cli._write_csv.bytes"] + count["cli._write_sidecar.bytes"],
            **{f"layer.{layer}.s": layer_s[layer] for layer in LAYERS},
            "trace.spans": len(self.spans),
            "trace.main_s": dur_s["cli.main"],
        }

    def write_spans(self, path):
        """Tab-separated spans, times in seconds from the first span."""
        base = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tstart_s\tend_s\tinfo\n")
            for sid, name, parent, t0, t1, info in self.spans:
                fh.write(f"{sid}\t{name}\t{parent}\t{t0 - base:.9f}\t{t1 - base:.9f}\t"
                         f"{info or ''}\n")
