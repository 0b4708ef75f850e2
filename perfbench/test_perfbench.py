"""Self-tests of the benchmark: inputs, span arithmetic, checks, and a smoke pass per workload.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import inputs
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for seed in (inputs.DEFAULT_SEED, inputs.HELD_OUT_SEED):
        first, again = inputs.sweep_lp(seed), inputs.sweep_lp(seed)
        assert all(np.array_equal(first[k], again[k]) for k in first)
        docs, docs_again = inputs.solve_documents(seed, 3), inputs.solve_documents(seed, 3)
        assert [text for _, text in docs] == [text for _, text in docs_again]
        assert inputs.request_seed(seed, 2, 5) == inputs.request_seed(seed, 2, 5)
    assert inputs.solve_documents(0, 1)[0][1] != inputs.solve_documents(1, 1)[0][1]
    assert inputs.request_seed(0, 1, 2) != inputs.request_seed(0, 2, 1)
    assert inputs.lp_instance(inputs.DEFAULT_SEED) != inputs.lp_instance(inputs.HELD_OUT_SEED)


def test_generated_problems_pass_validation():
    pl = workloads.import_privlp(ROOT / "src")
    texts = [inputs.problem_document(inputs.sweep_lp(s)) for s in range(inputs.LP_POOL_SIZE)]
    texts += [text for _, text in inputs.solve_documents(0, 4)]
    for text in texts:
        pl.problem.validate(pl.problem.load_problem(text))


def _span(name, start, end, parent=-1, op=0):
    return (name, start, end, parent, op)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    synthetic = [
        _span("root", 0, 100),
        _span("a", 10, 30, parent=0),
        _span("a.inner", 12, 20, parent=1),
        _span("b", 20, 50, parent=0),     # overlaps a: [10, 50] is covered once
        _span("c", 90, 120, parent=0),    # runs past the parent: only [90, 100] counts
    ]
    assert spans.self_times_ns(synthetic) == [100 - 40 - 10, 20 - 8, 8, 30, 30]
    summary = spans.summarize(synthetic)
    assert summary["root"] == {"calls": 1, "self_s": 50e-9, "p50_us": 0.1}
    assert summary["a"]["self_s"] == pytest.approx(12e-9)


def test_covered_ns_merges_unsorted_and_nested_intervals():
    assert spans.covered_ns([(40, 60), (0, 10), (5, 8), (55, 70)], 0, 65) == 10 + 25
    assert spans.covered_ns([], 0, 10) == 0


def test_tracer_wraps_every_binding_and_restores_them():
    pl = workloads.import_privlp(ROOT / "src")
    originals = (pl.experiment.privatize_matrix, pl.cli.cost_bound, pl.mechanism.row_stream)
    tracer = spans.Tracer()
    tracer.install(vars(pl), workloads.OBSERVERS)
    try:
        assert pl.experiment.privatize_matrix is pl.mechanism.privatize_matrix
        assert pl.experiment.privatize_matrix is not originals[0]
        assert pl.cli.cost_bound is pl.accuracy.cost_bound is not originals[1]
        op = tracer.begin_op()
        doc = inputs.solve_documents(0, 1)[0][1]
        lp = pl.problem.load_problem(doc)
        pl.problem.validate(lp)
        pl.mechanism.privatize_matrix(lp.system, lp.privacy, 3)
        tracer.end(op)
    finally:
        tracer.uninstall()
    assert (pl.experiment.privatize_matrix, pl.cli.cost_bound,
            pl.mechanism.row_stream) == originals
    names = [span[spans.NAME] for span in tracer.spans]
    assert names[:4] == ["op", "problem.load_problem", "problem.validate",
                         "simplex.phase1_feasible"]
    assert names.count("seeds.row_stream") == inputs.SOLVE_SHAPE[0]
    parents = {span[spans.NAME]: span[spans.PARENT] for span in tracer.spans}
    assert parents["simplex.phase1_feasible"] == names.index("problem.validate")
    assert tracer.counters["mechanism.privatized"] > 0


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 1001))) == ("p95", 950)
    assert run.tail(list(range(1, 101))) == ("p90", 90)
    assert run.tail([3.0, 1.0, 2.0, 5.0]) == ("p50", 2.5)


def test_sweep_check_fails_on_a_wrong_bound_and_counts_changed_aggregates():
    reference = workloads.load_reference()["lp-sweep"]
    bounds = reference["bound"]["0"]
    rows = reference["rows"]["0"]
    lines = [",".join(workloads.CSV_HEADER)]
    for eps, bound, row in zip(inputs.EPS_ARG.split(","), bounds, rows):
        lines.append(",".join([eps, *row, bound, "20", "0"]))
    text = "\n".join(lines) + "\n"

    result = workloads.CheckResult()
    workloads.check_sweep_csv(text, reference, 0, 0, 20, result)
    assert (result.failed, result.outputs_changed, result.outputs_unchecked) == (0, 0, 0)

    workloads.check_sweep_csv(text, reference, 0, 99, 20, result)
    assert result.outputs_unchecked == 1
    workloads.check_sweep_csv(text.replace(rows[2][0], "1.5", 1), reference, 0, 0, 20, result)
    assert (result.failed, result.outputs_changed) == (0, 1)
    workloads.check_sweep_csv(text.replace(bounds[0], "1.0", 1), reference, 0, 0, 20, result)
    workloads.check_sweep_csv(text.replace(",0\n", ",1\n", 1), reference, 0, 0, 20, result)
    assert result.failed == 2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_pass(name, tmp_path):
    pl = workloads.import_privlp(ROOT / "src")
    workload = workloads.WORKLOADS[name](pl, inputs.HELD_OUT_SEED, tmp_path, ROOT)
    ops = workload.run_pass(1)
    result = workload.check(ops, workloads.load_reference())
    assert result.failed == 0, result.errors
    assert result.outputs_changed == 0


def test_private_solve_check_rejects_a_tampered_answer(tmp_path):
    pl = workloads.import_privlp(ROOT / "src")
    workload = workloads.PrivateSolve(pl, 0, tmp_path, ROOT)
    workload.documents = workload.documents[:2]
    good, other = workload.run_pass(1)
    A_tilde, sol = good.outcome
    lowered = A_tilde.copy()
    lowered[0, 0] -= 1.0
    worse = dataclasses.replace(sol, objective=sol.objective * 0.5)
    tampered = [dataclasses.replace(good, outcome=(lowered, sol)),
                dataclasses.replace(good, outcome=(A_tilde, worse)),
                dataclasses.replace(other, outcome=RuntimeError("boom"))]
    assert workload.check(tampered, {}).failed == 3


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
