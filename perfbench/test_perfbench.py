"""Tests of the benchmark itself: checks, inputs, tracing and accounting.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json

import pytest

import workloads  # first: puts the checkout's src/ on sys.path
import run
import spans


def small_pass(workload: str, workdir) -> list[workloads.Op]:
    """A cheap pass with the span structure of the workload."""
    if workload == "census":
        argv = ["enumerate", "--max-vertices", "6", "--max-level", "3", "--json"]
        return [
            workloads.Op(
                "census/n6/L3",
                lambda: workloads.run_cli(argv),
                lambda out: None if out[0] == 0 else f"exit code {out[0]}",
            )
        ]
    keep = {"two-squares/L3", "oriented-5/L3", "pentagon", "complete-6", "cube", "oriented-ngon-4"}
    return [op for op in workloads.build(workload, 1, workdir) if op.name in keep]


def test_untimed_run_samples_every_operation(tmp_path):
    ops = small_pass("closure", tmp_path)
    metrics, attempted, failed, tracer = run.measure(ops, 0, False)
    assert tracer is None
    assert (attempted, failed) == (len(workloads.warmup()) + len(ops), 0)
    assert metrics["slowest_op_s"][0] <= metrics["wall_s"][0]
    assert metrics["ops_failed_frac"] == (0.0, "ratio")


def test_wrong_output_counts_as_failure(tmp_path):
    g = workloads.oriented_n_gon(5)
    cfg = workloads.closure_module.ClosureConfig(max_level=2)
    right = workloads.Op("right", lambda: workloads.closure_module.closure(g, cfg),
                         workloads.dims_check([1, 1, 5]))
    wrong_dim = workloads.Op("wrong", right.run, workloads.dims_check([1, 1, 6]))
    raises = workloads.Op("raises", lambda: 1 // 0, workloads.dims_check([1]))
    exits = workloads.Op(
        "exits",
        lambda: workloads.run_cli(["analyze", str(tmp_path / "missing.graph"), "--json"]),
        workloads.analysis_check([1], "FussCatalan(1)"),
    )
    assert run.run_pass([right]).failed == 0
    p = run.run_pass([right, wrong_dim, raises, exits])
    assert (len(p.times), p.failed) == (4, 3)


def test_checks_reject_tampered_documents():
    doc = {"total": 38, "tally": dict(workloads.CENSUS_TALLY),
           "graphs": [{"n": n} for n, k in workloads.CENSUS_SIZES.items() for _ in range(k)]}
    assert workloads.check_census((0, json.dumps(doc))) is None
    assert workloads.check_census((1, json.dumps(doc))) is not None
    assert workloads.check_census((0, json.dumps({**doc, "graphs": doc["graphs"][1:]}))) is not None
    assert workloads.check_census((0, json.dumps({**doc, "tally": {"dihedral": 38}}))) is not None

    check = workloads.analysis_check([1, 1, 3, 13], "Dihedral(5)")
    analysis = {"closure": {"dims": [1, 1, 3, 13]}, "classification": {"description": "Dihedral(5)"}}
    assert check((0, json.dumps(analysis))) is None
    analysis["closure"]["dims"] = [1, 1, 3, 14]
    assert check((0, json.dumps(analysis))) is not None


@pytest.mark.parametrize("workload", ["closure"])
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    def inputs(seed: int, name: str):
        d = tmp_path / name
        d.mkdir()
        ops = workloads.build(workload, seed, d)
        return [op.name for op in ops], {p.name: p.read_bytes() for p in d.iterdir()}

    first = inputs(7, "a")
    assert first[1]
    assert inputs(7, "b") == first
    assert inputs(8, "c") != first


def traced_bindings() -> dict:
    names = {fn for _, fn in spans.TRACED}
    return {
        (m.__name__, fn): vars(m)[fn]
        for m in spans.package_modules()
        for fn in names
        if fn in vars(m)
    }


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    before = traced_bindings()
    tracer = spans.Tracer()
    with tracer:
        during = traced_bindings()
        assert run.run_pass(small_pass("closure", tmp_path), tracer).failed == 0
    assert all(during[k] is not before[k] for k in before)
    for module in ("qsymgraph", "qsymgraph.cli", "qsymgraph.classify", "qsymgraph.closure"):
        assert (module, "closure") in before
    after = traced_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert {s.name for s in tracer.spans} >= {"cli.main", "closure.closure", "graphs.parse_graph"}

    with pytest.raises(ZeroDivisionError), spans.Tracer():
        1 // 0
    assert all(traced_bindings()[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_and_remainder_add_up_to_traced_wall(workload, tmp_path):
    ops = small_pass(workload, tmp_path)
    metrics, attempted, failed, _ = run.measure(ops, 0, True)
    # the warm-up, an untraced and a traced pass
    assert (attempted, failed) == (len(workloads.warmup()) + 2 * len(ops), 0)
    self_total = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_s"))
    traced_wall = metrics["trace.wall_s"][0]
    assert self_total > 0
    assert self_total + metrics["trace.remainder_s"][0] == pytest.approx(traced_wall, rel=1e-9)
    assert metrics["closure.closure.calls"][0] >= 1

    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert {m: u for m, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in bench["per_layer"]}
