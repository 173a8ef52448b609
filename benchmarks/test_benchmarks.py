"""Tests of the benchmark harness itself: run with ``python -m pytest benchmarks``."""

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import run
import speed
import tracer as tracing
import workloads

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"] for m in CONTRACT["per_layer"]}


@pytest.fixture(scope="module")
def bf():
    return run.load_program()


def test_contract_lists_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_on_a_tiny_input(bf, workload):
    tally, metrics, info = run.measure(bf, workload, 3, 0, speed.SpeedProbe())
    assert tally.failed == 0, tally.problems
    assert tally.attempted >= 1 and info["calls"] == workloads.PASS[workload]
    assert set(metrics) | {"setup_s"} == END_TO_END
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_traces_on_a_tiny_input(bf, workload):
    tally, metrics, info, spans = run.measure_traced(bf, workload, 3, 0,
                                                        speed.SpeedProbe())
    assert tally.failed == 0, tally.problems
    assert set(metrics) == PER_LAYER
    assert info["missing_sites"] == [] and spans
    assert metrics["geometry.make_boundary.calls"][0] >= 1


def test_same_seed_gives_same_inputs(bf):
    labels = [[op.label for op in workloads.make_ops(bf, "check_scan", seed)]
              for seed in (5, 5, 6)]
    assert labels[0] == labels[1] != labels[2]


def _flagship(bf):
    descriptor = workloads.limacon(4, 0.05)
    fields = dict(n=4, m=1, kind="main", N=4, s=3)
    return bf.find_orbit(bf.SearchRequest(billiard=descriptor, **fields)), descriptor, fields


def test_find_gate_flags_a_planted_wrong_expectation(bf):
    report, descriptor, fields = _flagship(bf)
    assert workloads.find_problems(bf, report, descriptor, fields, "I") == []
    wrong = workloads.find_problems(bf, report, descriptor, fields, "II")
    assert len(wrong) == 1 and "type label" in wrong[0]
    wrong = workloads.find_problems(bf, report, descriptor, dict(fields, s=4), "I")
    assert len(wrong) == 1 and "(p, q)" in wrong[0]


def test_check_gate_matches_the_readme_value_and_flags_a_planted_error(bf):
    assert workloads.kappa_chord_closed_form(4, 1, 0.05) == pytest.approx(
        0.223296878269, abs=1e-12)
    result = workloads.check_call(bf, 4, 1, 4, 3, 0.05)
    assert workloads.check_problems(result, 4, 1, 4, 3, 0.05) == []
    wrong = workloads.check_problems(result, 4, 1, 4, 3, 0.0501)
    assert any("closed form" in p for p in wrong)
    assert workloads.check_problems(None, 4, 1, 4, 3, 0.05) == ["convex table rejected"]
    nonconvex = workloads.check_call(bf, 4, 1, 4, 3, 0.07)
    assert nonconvex is None
    assert workloads.check_problems(nonconvex, 4, 1, 4, 3, 0.07) == []


def test_trace_reproduces_the_known_flagship_counts(bf):
    # measured at the commit that introduced the benchmark: 121 accepted
    # steps and 877 gradient-kernel calls for one flagship find
    with tracing.Tracer() as tracer:
        tracer.start()
        report, _, _ = _flagship(bf)
        tracer.stop()
    summary = tracing.summarize(tracer.spans)
    assert report.flow.n_steps == summary["steps_accepted"] == 121
    assert summary["calls"]["lagrangian.gradient"] == 877
    assert summary["calls"]["flow.integrate"] == summary["calls"]["finder.find_orbit"] == 1


def test_tracer_restores_the_program_on_exit(bf):
    original = bf.finder.integrate
    with tracing.Tracer():
        assert bf.finder.integrate is not original
    assert bf.finder.integrate is original


def test_missing_site_is_reported_not_fatal(bf):
    sites = {"flow.integrate": ["billiardflow.finder:integrate"],
             "gone.layer": ["billiardflow.finder:no_such_function",
                            "billiardflow.no_such_module:f"]}
    with tracing.Tracer(sites) as tracer:
        pass
    assert tracer.missing == sites["gone.layer"]
    assert tracer.missing_layers() == ["gone.layer"]


def test_self_time_subtracts_the_union_of_children_across_threads():
    S = tracing.Span
    spans = [S(1, 0, "outer", 1, 0.0, 10.0, None),
             # two overlapping children in pool threads cover [1, 7]
             S(2, 1, "inner", 2, 1.0, 5.0, None),
             S(3, 1, "inner", 3, 3.0, 7.0, None),
             S(4, 3, "leaf", 3, 4.0, 6.0, None)]
    summary = tracing.summarize(spans)
    assert summary["self_s"]["outer"] == pytest.approx(4.0)
    assert summary["self_s"]["inner"] == pytest.approx(4.0 + 2.0)
    assert summary["self_s"]["leaf"] == pytest.approx(2.0)


def test_spans_from_pool_threads_attach_to_the_caller():
    def child():
        return 1

    def parent():
        t = threading.Thread(target=lambda: mod.child())
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    mod = type(sys)("fake_module")
    mod.child, mod.parent = child, parent
    sys.modules["fake_module"] = mod
    try:
        sites = {"p": ["fake_module:parent"], "c": ["fake_module:child"]}
        with tracing.Tracer(sites) as tracer:
            tracer.start()
            mod.parent()
            tracer.stop()
    finally:
        del sys.modules["fake_module"]
    by_layer = {s.layer: s for s in tracer.spans}
    assert by_layer["c"].parent == by_layer["p"].id
    assert by_layer["c"].thread != by_layer["p"].thread


def test_tail_has_ten_calls_beyond_it():
    times = [float(i) for i in range(1, 101)]
    assert run.tail(times) == (90.0, 90.0)
    assert run.tail(times[:30]) == (pytest.approx(100 * 20 / 30), 20.0)
    # too few calls: the median stands in
    assert run.tail(times[:15]) == (50.0, 8.0)
    assert run.tail(times[:14]) == (50.0, 7.5)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_contract_line():
    start = time.perf_counter()
    proc = _bench(run.ROOT, "--workload", "check_scan", "--seed", "2",
                  "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert time.perf_counter() - start < 60


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "find_small", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
