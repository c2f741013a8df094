"""Smoke test of the benchmark at eps = 1/16, outside the tier-1 suite.

Run with:  python3 -m pytest -q bench/test_bench.py   (a few seconds)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

SMALL = {
    "cleave-solve": {"eps": 1.0 / 16.0, "max_iters": 20},
    "ladder-io": {"eps_list": "1/16,1/32", "crack_eps": "1/16"},
}


def test_small_workloads_cover_the_declared_ones():
    assert set(SMALL) == set(workloads.WORKLOADS) \
        == {w["name"] for w in DECLARED["workloads"]}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_and_traced_pass_at_eps_1_16(name, tmp_path):
    w = workloads.create(name, 7, tmp_path, **SMALL[name])
    tracer = spans.Tracer()
    try:
        result = run.measure(w, 0.0, tracer)
    finally:
        w.close()
    assert result["attempted"] == 2
    assert result["failed"] == 0, result["failures"]

    untraced, _ = run.report_metrics(result, 0.25, 100.0)
    assert set(untraced) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(value > 0 for value, _ in untraced.values())
    traced, table = run.report_metrics(result, 0.25, 100.0, tracer)
    assert set(traced) == {m["name"] for m in DECLARED["per_layer"]}
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert (untraced | traced)[m["name"]][1] == m["unit"], m["name"]
    assert set(table) == set(spans.SCALED)

    # self times of all layers plus the rest of the pass make up the pass
    total = sum(traced[f"{layer}.self_ms"][0] for layer in spans.LAYERS)
    total += traced["bench.other_ms"][0]
    root = [s for s in tracer.spans if s[0] == spans.ROOT_SPAN]
    assert total == pytest.approx(1e3 * (root[0][2] - root[0][1]), rel=1e-9)

    # every replaced name is back to the original
    for owner, attr, _ in spans.TRACED.values():
        for holder, hattr in spans.call_sites(owner, attr):
            assert not hasattr(getattr(holder, hattr), "__wrapped__"), (holder, hattr)


def test_cleave_solve_counts_the_solver_work(tmp_path):
    w = workloads.create("cleave-solve", 7, tmp_path, **SMALL["cleave-solve"])
    tracer = spans.Tracer()
    with tracer.traced_pass():
        out = w.run()
    layers = {k: v for k, (v, _) in tracer.metrics()[0].items()}
    assert w.check(out) == []
    assert layers["solver.minimize.calls"] == 2
    assert layers["solver.iters"] > 0
    assert 0 < layers["solver.accept_ratio"] <= 1
    assert layers["solver.energy_evals_per_iter"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_names_cover_every_caller():
    sites = spans.call_sites(spans.discrete_energy, "interpolate_gradients")
    assert {"fraclat.discrete_energy", "fraclat.solver", "fraclat.crack_extraction"} \
        <= {holder.__name__ for holder, _ in sites}
