"""Call spans around fraclat's public functions, and the per-layer metrics.

Tracing works from outside the package: every name through which a
caller reaches one of the functions in ``TRACED`` (for example
``fraclat.solver.energy_rescaled`` or ``fraclat.cli.displacement_from_csv``)
is replaced by a wrapper for the duration of a traced pass and restored
afterwards.  Each call records one span (name, start, end, parent span,
pass number, a few facts about its arguments or result) in memory; the
spans are written out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

from workloads import (LADDER, Patches, cli, continuum,  # imports fraclat
                       crack_extraction, discrete_energy, lattice, material,
                       parse_eps_list, solver)

CALLER_MODULES = (cli, solver, discrete_energy, crack_extraction, lattice,
                  material, continuum)

ROOT_SPAN = "bench.pass"

# 1/eps of each rung of the ladder in the ladder-io workload
RUNGS = tuple(round(1.0 / eps) for eps in parse_eps_list(LADDER))


def _mesh_info(mesh) -> dict:
    return {"eps": mesh.spec.eps, "n_edges": mesh.n_edges}


def _minimize_info(args, result) -> dict:
    starts = result.starts
    return {"starts": len(starts),
            "iters": sum(s.iters for s in starts),
            "unconverged": sum(not s.converged for s in starts),
            "accepted": sum(len(s.history) - 1 for s in starts)}


def _file_info(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# metric name -> (module or class, attribute, facts recorded per call)
TRACED = {
    "discrete_energy.energy_rescaled": (
        discrete_energy, "energy_rescaled", lambda a, r: _mesh_info(a[0].mesh)),
    "discrete_energy.gradient": (discrete_energy, "gradient", None),
    "discrete_energy.interpolate_gradients": (
        discrete_energy, "interpolate_gradients", None),
    "material.cell_energy": (material, "cell_energy", None),
    "material.PenaltyChi.call": (material.PenaltyChi, "__call__", None),
    "material.PenaltyChi.grad": (material.PenaltyChi, "grad", None),
    "material.PairPotential.call": (material.PairPotential, "__call__", None),
    "material.PairPotential.deriv": (material.PairPotential, "deriv", None),
    "solver.minimize": (solver, "minimize", _minimize_info),
    "solver.recovery_sequence": (
        solver, "recovery_sequence", lambda a, r: _mesh_info(a[1])),
    "lattice.build_mesh": (lattice, "build_mesh", lambda a, r: _mesh_info(r)),
    "crack_extraction.classify_broken": (
        crack_extraction, "classify_broken",
        lambda a, r: dict(_mesh_info(a[0].mesh), count=r.count)),
    "crack_extraction.build_modified": (crack_extraction, "build_modified", None),
    "discrete_energy.displacement_to_csv": (
        discrete_energy, "displacement_to_csv", lambda a, r: _file_info(a[1])),
    "discrete_energy.displacement_from_csv": (
        discrete_energy, "displacement_from_csv", lambda a, r: _file_info(a[0])),
    "cli.write_csv": (cli, "write_csv", None),
}

# functions whose time per call is tabulated against 1/eps
SCALED = ("lattice.build_mesh", "discrete_energy.energy_rescaled",
          "crack_extraction.classify_broken", "solver.recovery_sequence")

LAYERS = ("discrete_energy", "material", "solver", "lattice", "crack_extraction", "cli")


def call_sites(owner, attr: str):
    """Every (holder, name) through which callers reach ``owner.attr``.

    For a module-level function these are the defining module and each
    fraclat module that imported the name; a method has only its class.
    Wrappers that keep ``__wrapped__`` count as the function they wrap.
    """
    target = inspect.unwrap(getattr(owner, attr))
    if isinstance(owner, type):
        return [(owner, attr)]
    return [(mod, attr) for mod in CALLER_MODULES
            if attr in vars(mod) and inspect.unwrap(vars(mod)[attr]) is target]


_UNITS = {"discrete_energy.ns_per_bond": "ns",
          "crack_extraction.us_per_broken": "us",
          "solver.energy_evals_per_iter": "evals/iter",
          "solver.accept_ratio": "ratio"}


def unit_of(metric: str) -> str:
    if metric in _UNITS:
        return _UNITS[metric]
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith("mb_per_s"):
        return "MB/s"
    return "count"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        # (name, start, end, parent index or -1, pass number, facts or None)
        self.spans: list = []
        self._stack: list = []
        self.passes = 0

    def _wrap(self, name: str, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = (name, start, perf_counter(), parent, self.passes, None)
                raise
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.passes,
                          info(args, result) if info else None)
            return result

        return traced

    @contextmanager
    def traced_pass(self):
        """Trace every call made inside the block as one pass."""
        patches = Patches()
        for name, (owner, attr, info) in TRACED.items():
            for holder, hattr in call_sites(owner, attr):
                patches.replace(holder, hattr, self._wrap(name, getattr(holder, hattr), info))
        self.passes += 1
        root = len(self.spans)
        self.spans.append(None)
        self._stack.append(root)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[root] = (ROOT_SPAN, start, end, -1, self.passes, None)
            patches.restore()

    def write(self, path):
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "pass", "parent", "start_s", "end_s", "facts"])
            for k, (name, start, end, parent, npass, facts) in enumerate(self.spans):
                writer.writerow([k, name, npass, parent, repr(start - t0),
                                 repr(end - t0), json.dumps(facts) if facts else ""])

    def metrics(self) -> tuple[dict, dict]:
        """Per-layer metrics (name -> (value, unit)) and the per-eps table.

        Times per call are medians; calls, self times and counts are per
        pass.  The self time of a span is its duration minus the durations of
        its direct children, so the self times of all layers plus
        ``bench.other_ms`` (time in a pass outside every traced call) add up
        to the traced pass time.
        """
        spans = self.spans
        passes = max(self.passes, 1)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict = {}
        for k, span in enumerate(spans):
            by_name.setdefault(span[0], []).append(k)

        def with_facts(name):  # calls that returned, so their facts exist
            return [k for k in by_name.get(name, []) if spans[k][5] is not None]

        def durations(name):
            return [spans[k][2] - spans[k][1] for k in by_name.get(name, [])]

        def self_ms(name):
            return 1e3 * sum(spans[k][2] - spans[k][1] - child_time[k]
                             for k in by_name.get(name, [])) / passes

        m: dict = {}
        for name in TRACED:
            m[f"{name}.ms"] = 1e3 * _median(durations(name))
            m[f"{name}.calls"] = len(by_name.get(name, [])) / passes
            m[f"{name}.self_ms"] = self_ms(name)
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = sum(m[f"{name}.self_ms"] for name in TRACED
                                        if name.split(".")[0] == layer)
        m["bench.other_ms"] = self_ms(ROOT_SPAN)

        energy = with_facts("discrete_energy.energy_rescaled")
        m["discrete_energy.ns_per_bond"] = _median(
            [1e9 * (spans[k][2] - spans[k][1]) / spans[k][5]["n_edges"] for k in energy])

        mins = set(with_facts("solver.minimize"))
        facts = [spans[k][5] for k in mins]
        iters = sum(f["iters"] for f in facts)
        starts = sum(f["starts"] for f in facts)
        evals = sum(1 for k in energy if spans[k][3] in mins)
        # each start evaluates once before its descent and once for the report;
        # every other energy call under minimize is a line-search trial
        trials = evals - 2 * starts
        m["solver.iters"] = iters / passes
        m["solver.unconverged"] = sum(f["unconverged"] for f in facts) / passes
        m["solver.energy_evals_per_iter"] = evals / iters if iters else 0.0
        m["solver.accept_ratio"] = (sum(f["accepted"] for f in facts) / trials
                                    if trials > 0 else 0.0)

        n_broken = sum(spans[k][5]["count"]
                       for k in with_facts("crack_extraction.classify_broken"))
        crack_s = sum(durations("crack_extraction.classify_broken")) \
            + sum(durations("crack_extraction.build_modified"))
        m["crack_extraction.n_broken"] = n_broken / passes
        m["crack_extraction.us_per_broken"] = 1e6 * crack_s / n_broken if n_broken else 0.0

        for name in ("discrete_energy.displacement_to_csv",
                     "discrete_energy.displacement_from_csv"):
            m[f"{name}.mb_per_s"] = _median(
                [spans[k][5]["bytes"] / 1e6 / (spans[k][2] - spans[k][1])
                 for k in with_facts(name)])

        table: dict = {}
        for name in SCALED:
            per_eps: dict = {}
            for k in with_facts(name):
                inv_eps = round(1.0 / spans[k][5]["eps"])
                per_eps.setdefault(inv_eps, []).append(spans[k][2] - spans[k][1])
            table[name] = {str(n): {"ms": 1e3 * _median(d), "calls": len(d) / passes}
                           for n, d in sorted(per_eps.items())}
            for n in RUNGS:
                m[f"{name}.at_1_{n}.ms"] = 1e3 * _median(per_eps.get(n, []))
        return {k: (v, unit_of(k)) for k, v in m.items()}, table
