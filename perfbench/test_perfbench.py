"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

The span test runs one traced iteration of every workload (about a minute).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

# Span -> the workload that must fire it (the workload whose wall_s it drives).
SPAN_WORKLOADS = {
    "laurent.const_term": ("theorem-grid", "modp-grid"),
    "groebner.build_ideal": ("theorem-grid", "modp-grid"),
    "groebner.basis.degree_ideal": ("theorem-grid", "modp-grid"),
    "groebner.basis.unit_ideal": ("theorem-grid", "modp-grid"),
    "groebner.buchberger": ("theorem-grid", "modp-grid"),
    "groebner.staircase": ("theorem-grid", "modp-grid"),
    "chow.ci_degree": ("theorem-grid", "modp-grid"),
    "algebra.exact_matrix.solve": ("theorem-grid",),
    "algebra.exact_matrix.rank": ("theorem-grid",),
    "experiments.graded_quotient_dims": ("hilbert-slices",),
    "experiments.slice_monomials": ("hilbert-slices",),
    "experiments.generic_forms": ("hilbert-slices",),
    "eulerian.orbit_decomposition": ("orbit-decomposition",),
    "cli": tuple(workloads.WORKLOADS),
}


def small_modp_tasks():
    return workloads.modp_tasks(3)  # windows with m+n <= 3: six quick tasks


@pytest.fixture(scope="module")
def traced_iterations():
    return {
        name: run.spawn(workloads.tasks_for(name, 0), True, run.CHILD_TIMEOUT_S)
        for name in workloads.WORKLOADS
    }


def test_every_span_fires_on_its_workload(traced_iterations):
    fired = {name: {span[0] for span in it["spans"]} for name, it in traced_iterations.items()}
    for span, names in SPAN_WORKLOADS.items():
        for name in names:
            assert span in fired[name], f"{span} never fired on {name}"
    for name, it in traced_iterations.items():
        assert it["failures"] == [], name


def test_traced_counts(traced_iterations):
    layers = {name: tracing.layer_metrics(it["spans"]) for name, it in traced_iterations.items()}
    hilbert = layers["hilbert-slices"]
    assert hilbert["experiments.seeds_tried"] == 1
    assert hilbert["experiments.fallback_ranks"] == 0
    assert layers["orbit-decomposition"]["eulerian.orbit_decomposition.calls"] == 4
    for name in ("theorem-grid", "modp-grid"):
        assert layers[name]["groebner.buchberger.calls"] > 0
        assert layers[name]["groebner.basis_len"] > 0
    for name in ("hilbert-slices", "orbit-decomposition"):
        assert layers[name]["groebner.buchberger.calls"] == 0
    for layer in layers.values():
        assert set(layer) == set(tracing.LAYER_METRICS)
        assert layer["cli.self_s"] > 0


def test_every_binding_of_a_layer_function_is_wrapped():
    """A module that imported a layer function by name must call the wrapper."""
    script = f"""
import json, sys
sys.path[:0] = [{os.path.join(run.ROOT, "src")!r}, {run.HERE!r}]
import laurent_eulerian.cli, tracing
originals = {{}}
for name, home, attr in tracing.FUNCTIONS:
    originals[name] = getattr(sys.modules["laurent_eulerian." + home], attr)
patched = tracing.install(tracing.Tracer())
left = [(m.__name__, k) for m in list(sys.modules.values())
        if m.__name__.startswith("laurent_eulerian")
        for k, v in vars(m).items() if any(v is o for o in originals.values())]
print(json.dumps({{"left": left, "patched": patched}}))
"""
    out = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True,
                         text=True, check=True).stdout
    result = json.loads(out)
    assert result["left"] == []
    patched = {tuple(p) for p in result["patched"]}
    # experiments also imports ideal_quotient_dimension and conjecture_unit_check
    # by name; they reach the wrapped groebner_of_ideal through groebner's globals.
    assert {
        ("laurent_eulerian.groebner", "constant_term_iterative"),
        ("laurent_eulerian.experiments", "generic_ci_degree"),
        ("laurent_eulerian.experiments", "orbit_decomposition"),
        ("laurent_eulerian.cli", "orbit_decomposition"),
        ("laurent_eulerian", "orbit_decomposition"),
    } <= patched


def test_wrong_expected_value_is_counted_as_failed():
    table = dict(workloads.EULERIAN)
    table[(2, 1)] += 1  # the degree of the (2,1) window
    tasks = small_modp_tasks()
    probes, iterations = run.measure(tasks, 0, False, table)
    samples = run.summarize(probes, iterations)
    args = argparse.Namespace(workload="modp-grid", seed=0, seconds=0, trace=0)
    result = run.report(args, probes, iterations, samples)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, len(tasks), 1)
    (argv, reason), = iterations[0]["failures"]
    assert argv[argv.index("--m") + 1:argv.index("--m") + 4] == ("2", "--n", "1")
    assert "degree" in argv


def test_each_iteration_gets_a_fresh_interpreter():
    tasks = small_modp_tasks()
    first = run.spawn(tasks, False, run.CHILD_TIMEOUT_S)
    second = run.spawn(tasks, False, run.CHILD_TIMEOUT_S)
    assert first["failures"] == second["failures"] == []
    assert first["pid"] != second["pid"]


def test_overrunning_child_is_killed_and_counted():
    tasks = workloads.tasks_for("theorem-grid", 0)
    record = run.spawn(tasks, False, timeout=1)
    assert len(record["failures"]) == len(tasks)
    assert all("killed" in reason for _, reason in record["failures"])


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_no_task_passes_a_budget(seed):
    for name in workloads.WORKLOADS:
        for task in workloads.tasks_for(name, seed):
            assert "--budget-seconds" not in task.argv


def test_seed_sets_hilbert_forms_and_task_order():
    def order(seed):
        return [task.argv for task in workloads.tasks_for("modp-grid", seed)]

    assert order(3) == order(3)
    assert order(3) != order(4)
    assert sorted(order(3)) == sorted(order(4))
    (task,) = workloads.tasks_for("hilbert-slices", 5)
    assert task.argv[-2:] == ("--seed", "5")


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in bench["per_layer"]:
        assert m["unit"] == run.PER_LAYER[m["name"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modp-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
