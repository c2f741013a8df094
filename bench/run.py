"""Seeded benchmark of fraclat: two workloads, end-to-end and per-layer metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process drives one workload in a closed loop with a single caller:
each pass starts after the previous one has returned and been checked.
Passes repeat until S seconds have elapsed; at least one pass always
runs, so a workload whose pass is longer than S times exactly one.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced
and traced, and the JSON carries the per-layer metrics instead.  Every
run also saves a record (metrics, quartiles, failures, provenance) under
``bench/results/``, and a traced run saves its spans there as CSV.

numpy / OpenBLAS threads are left at their defaults; the provenance
record states what they were.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser, parser.parse_args(argv)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def measure(w, seconds: float, tracer=None, probe=None) -> dict:
    """Closed-loop passes for ``seconds``; with a tracer, untraced and
    traced passes alternate, starting untraced.

    ``probe`` times one set-up in a fresh interpreter.  It runs after every
    pass, and then until there are ``SETUP_PROBES`` samples, so that the
    set-up samples span the run as the pass times do: a shared host's speed
    drifts from one minute to the next, and a burst of probes samples one
    moment of it.
    """
    times = {False: [], True: []}
    setup = []
    failures = []
    answers = None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(times[False]) > len(times[True])
        problems = []
        t0 = time.perf_counter()
        try:
            with tracer.traced_pass() if traced else contextlib.nullcontext():
                out = w.run()
        except Exception as exc:  # a failed pass is counted, not fatal
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
        times[traced].append(time.perf_counter() - t0)
        if out is not None:
            try:
                problems = w.check(out)
                if answers is None and not problems:
                    answers = w.answers(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(problems)
        if probe is not None:
            setup.append(probe())
        if time.perf_counter() - start >= seconds and (tracer is None or times[True]):
            break
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return {"untraced_s": times[False], "traced_s": times[True], "setup_s": setup,
            "attempted": len(times[False]) + len(times[True]),
            "failed": len(failures), "failures": failures[:5], "answers": answers}


def setup_probe(name: str, seed: int, workdir: Path):
    """A function that times one set-up of ``name`` in a fresh interpreter."""
    count = 0

    def probe() -> float:
        nonlocal count
        count += 1
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), name, str(seed),
             str(workdir / f"probe-{count}")],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])

    return probe


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def report_metrics(result: dict, setup_s: float, peak_rss_mb: float, tracer=None):
    """(metrics as name -> (value, unit), per-eps table or None).

    Untraced runs report the end-to-end metrics, traced runs the
    per-layer ones plus the traced pass time and its excess over the
    untraced passes of the same run (the tracing overhead).
    """
    run_s = statistics.median(result["untraced_s"])
    if tracer is None:
        return {"run_s": (run_s, "s"), "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "best_energy.sup": (result["answers"]["best_energy.sup"], "1")}, None
    metrics, table = tracer.metrics()
    traced_s = statistics.median(result["traced_s"])
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - run_s, "s")
    return metrics, table


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                return int(getattr(dll, symbol)())
    return None


def provenance(seeds: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _openblas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "seeds": seeds,
    }


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser, args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import spans
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        w = workloads.create(args.workload, args.seed, workdir)
        setup_in_process = time.perf_counter() - t0
        try:
            tracer = spans.Tracer() if args.trace else None
            result = measure(w, args.seconds, tracer,
                             setup_probe(args.workload, args.seed, workdir))
        finally:
            w.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result["answers"] is None:
        print(f"bench: no pass was correct: {result['failures']}", file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run = spread(result["untraced_s"])
    setup_samples = result["setup_s"]
    setup = spread(setup_samples)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller; each pass starts after the previous one is checked",
        "provenance": provenance(w.seeds),
        "run_s": run,
        "untraced_pass_s": result["untraced_s"],
        "traced_pass_s": result["traced_s"],
        "setup_s": dict(setup, samples=setup_samples, in_process=setup_in_process),
        "peak_rss_mb": peak_rss_mb,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "answers": result["answers"],
    }
    metrics, table = report_metrics(result, setup["median"], peak_rss_mb, tracer)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        record["scaling"] = table
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.csv")
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {result['attempted']} passes, "
          f"{result['failed']} failed; run_s median {run['median']:.4f} "
          f"[q1 {run['q1']:.4f}, q3 {run['q3']:.4f}, n {run['n']}]; "
          f"setup_s {setup['median']:.4f}; peak_rss_mb {peak_rss_mb:.1f}")
    print("answers: " + json.dumps(result["answers"]))
    for problems in result["failures"]:
        print("failed: " + "; ".join(problems))
    if tracer is not None:
        print(f"traced run_s {metrics['trace.run_s'][0]:.4f}, "
              f"overhead {metrics['trace.overhead_s'][0]:+.4f} s")
        for name, rungs in table.items():
            print(f"ms per call of {name} by 1/eps: " + ", ".join(
                f"{n}: {r['ms']:.3f}" for n, r in rungs.items()))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
