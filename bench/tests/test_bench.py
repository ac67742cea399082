"""Tests of the benchmark harness itself (not part of the program's test suite).

    python3 -m pytest -q bench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import run
import tracing
import workloads
from tracing import Span, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_cases(name: str, seed: int, n: int) -> list:
    stream = itertools.chain.from_iterable(workloads.passes(workloads.WORKLOADS[name], seed))
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    n = 20 if name != "inverse-design" else 9
    a, b = first_cases(name, 5, n), first_cases(name, 5, n)
    assert repr(a) == repr(b)
    assert repr(first_cases(name, 6, n)) != repr(a)


def test_passes_shuffle_the_design_and_change_no_case():
    w = workloads.WORKLOADS["inverse-design"]
    design = workloads.design(w)
    assert len(design) == w.design_size
    first, second = itertools.islice(workloads.passes(w, 4), 2)
    assert first[0] == second[0] == design[0] == {}  # the unmodified preset leads every pass
    assert sorted(map(repr, first)) == sorted(map(repr, second)) == sorted(map(repr, design))
    assert first[1:] != second[1:]


def test_dynamics_design_leaves_out_the_positivity_defect_case():
    w = workloads.WORKLOADS["dynamics"]
    drawn, design = workloads.drawn(w), workloads.design(w)
    assert len(drawn) == w.design_size and len(design) == w.design_size - 1
    defect = drawn[workloads.POSITIVITY_DEFECT_CASE]
    assert defect.bc is workloads.BC.DIRICHLET and round(defect.R, 2) == 2.49
    assert all(case is not defect for case in design)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="Crank-Nicolson runs negative on this layout under criterion 9's T and dt"
)
def test_simulator_keeps_positivity_on_the_left_out_dynamics_case():
    w = workloads.WORKLOADS["dynamics"]
    outcome = w.run(workloads.drawn(w)[workloads.POSITIVITY_DEFECT_CASE])
    assert outcome.values[3] >= -1e-12, outcome.note  # min_density_ratio


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_benchmark_run_has_a_tail_and_a_middle_case(name):
    w = workloads.WORKLOADS[name]
    items = len(workloads.design(w)) * run.pass_count(w, BENCHMARK["run_seconds"])
    assert items > run.TAIL_BEYOND
    assert len(workloads.design(w)) % 2 == 1


def test_pass_count_depends_on_seconds_only():
    w = workloads.WORKLOADS["scalar-sweep"]
    assert run.pass_count(w, 0.5) == 1
    assert run.pass_count(w, 2 * w.pass_s) == 2
    assert run.pass_count(w, 20) == round(20 / w.pass_s)
    small = workloads.WORKLOADS["inverse-design"]  # 9 cases: two passes for a tail
    assert run.pass_count(small, 0.5) == 2 and len(workloads.design(small)) * 2 > run.TAIL_BEYOND


def test_timed_loop_runs_whole_passes():
    w = workloads.Workload("toy", None, lambda c: workloads.Outcome(True, (c,)), list, 3, 1.0)
    calls = []
    records = run.timed_loop(w, iter([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), 2, after_pass=lambda: calls.append(1))
    assert [c for c, _, _ in records] == [1, 2, 3, 4, 5, 6] and len(calls) == 2
    stalled = run.timed_loop(w, iter([[1] * 6, [2] * 6, [3] * 6]), 3, stall_s=0.0)
    assert [c for c, _, _ in stalled] == [1] * 6 + [2] * 6  # stops once the tail exists


def test_scalar_blocks_balance_boundaries_and_patch_counts():
    w = workloads.WORKLOADS["scalar-sweep"]
    block = list(itertools.islice(w.cases(np.random.default_rng(3)), 54))
    combos = [(p.bc.value, p.K) for p in block]
    assert combos.count(("dirichlet", 1)) == combos.count(("neumann", 1)) == 18
    assert [combos.count(("periodic", k)) for k in (1, 2, 3)] == [6, 6, 6]
    # Each (boundary, K) group spans the whole R range, one sixth per layout.
    logs = sorted(np.log(p.R / 0.1) / np.log(300.0) for p in block if p.bc.value == "periodic" and p.K == 2)
    assert [int(6 * x) for x in logs] == [0, 1, 2, 3, 4, 5]


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 3.5, 6.0, 0, 0),  # overlaps a: the union [1, 6] is covered once
        Span("c", 9.0, 12.0, 0, 0),  # runs past the parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_metrics_counts_relations():
    spans = [
        Span("bench.item", 0.0, 10.0, None, 0),
        Span("oracle.min_mortality_fd", 0.0, 9.0, 0, 0),
        Span("oracle.top_eigenvalue_fd", 1.0, 3.0, 1, 0),
        Span("oracle.assemble", 1.0, 2.0, 2, 0, {"unknowns": 100}),
        Span("oracle.top_eigenvalue_fd", 4.0, 6.0, 1, 0),
        Span("oracle.assemble", 4.0, 5.0, 4, 0, {"unknowns": 300}),
        Span("oracle.solve.eigsh", 5.0, 5.5, 4, 0, {"raised": "ArpackNoConvergence"}),
        Span("cli.main", 9.0, 9.5, 0, 0, {"exit": 3}),
    ]
    m = layer_metrics(spans)
    assert m["oracle.assemble.calls"] == 2
    assert m["oracle.assemble.unknowns"] == 400
    assert m["oracle.assemble.ns_per_unknown"] == pytest.approx(2.0 * 1e9 / 400)
    assert m["oracle.fd_evals_per_solve"] == 2.0
    assert m["oracle.min_mortality_fd.self_s"] == pytest.approx(5.0)
    assert m["oracle.top_eigenvalue_fd.self_s"] == pytest.approx(1.5)
    assert m["oracle.solve.fallback.calls"] == 1
    assert m["cli.main.nonzero_exits"] == 1
    assert m["simulate.steps_per_s"] == 0.0


def test_layer_metric_names_match_benchmark_file():
    names = set(layer_metrics([])) | {"bench.trace_overhead_frac"} | {f"{k}_p50" for k in run.ACCURACY}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert names == set(declared)
    assert all(run.per_layer_unit(n) == declared[n] for n in names)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_accuracy_medians_take_any_iterable():
    outcomes = (workloads.Outcome(True, (), {"fd_abs_err": e, "exponent_err": 2 * e}) for e in (1.0, 3.0, 2.0))
    m = run.accuracy_medians(outcomes)
    assert (m["fd_abs_err_p50"], m["exponent_err_p50"], m["mu_star_rel_diff_p50"]) == (2.0, 4.0, 0.0)


def test_tail_percentile_rule():
    assert run.tail_percentile([float(i) for i in range(10)]) is None
    value, pct = run.tail_percentile([float(i) for i in range(11)])
    assert (value, pct) == (0.0, pytest.approx(100.0 / 11))
    times = [float(i) for i in range(100, 0, -1)]  # 1..100, unsorted
    value, pct = run.tail_percentile(times)
    assert (value, pct) == (90.0, 90.0)
    assert sum(t > value for t in times) == 10


def _wrapped_attributes():
    owners = [sys.modules[k] for k in sys.modules if k == "patchcontrol" or k.startswith("patchcontrol.")]
    owners += [np.linalg, scipy.sparse.linalg]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_bit_identical(name):
    w = workloads.WORKLOADS[name]
    cases = w.warmup()
    before = _wrapped_attributes()
    plain = [w.run(c).values for c in cases]
    tracer = Tracer()
    with tracer.installed():
        assert workloads.oracle.top_eigenvalue_fd is not before[(id(workloads.oracle), "top_eigenvalue_fd")]
        traced = [w.run(c).values for c in cases]
    assert repr(plain) == repr(traced)
    assert tracer.spans, "the tracer recorded nothing"
    after = _wrapped_attributes()
    assert all(after[k] is v for k, v in before.items()), "a wrapper was left installed"


def test_tracer_names_each_caller_binding():
    tracer = Tracer()
    with tracer.installed():
        cli = workloads.cli
        assert cli.min_mortality_fd is workloads.oracle.min_mortality_fd
        assert workloads.simulate_mod.assemble is not workloads.oracle.assemble
        layout = workloads.model.PatchLayout(
            workloads.model.ScalarZone(1.0, 1.0), workloads.model.ScalarZone(1.0, -4.0), R=2.0, r=0.5
        )
        workloads.simulate_mod.simulate(workloads.simulate_mod.SimulationRun(layout=layout, T=1.0, dt=0.05))
        np.linalg.eigvals(np.eye(2))  # outside any oracle span: not attributed
    names = [s.name for s in tracer.spans]
    assert "simulate.assemble" in names and "simulate.factor" in names
    assert "oracle.assemble" not in names and "oracle.solve.dense_staged" not in names


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_each_workload(name):
    w = workloads.WORKLOADS[name]
    cases = first_cases(name, 0, 2) if name != "inverse-design" else w.warmup()
    records = run.timed_loop(w, [cases], 1)
    assert [o.ok for _, _, o in records] == [True] * len(cases), [o.note for _, _, o in records]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_contract(trace):
    proc = _bench("--workload", "scalar-sweep", "--seed", "0", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "scalar-sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
