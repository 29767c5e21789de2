"""Tests for the benchmark's own helpers. Run: python -m pytest perfbench/tests"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import gate_problems  # noqa: E402
from worker import Op, check_design, split_probes, tally_report  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", ["design_mix", "trajectory_mix"])
def test_generators_depend_on_seed(workload):
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_stratified_puts_one_draw_in_each_stratum():
    import random

    draws = workloads.stratified(random.Random(3), 10, 2.0, 3.0)
    assert sorted(int((d - 2.0) * 10) for d in draws) == list(range(10))


def test_design_draws_stay_in_the_converging_regime():
    specs = workloads.design_specs(5)
    assert [s["scheme"] for s in specs[:3]] == ["triangular", "inverse", "triangular"]
    assert sum(s["reference"] for s in specs) == 2
    for s in specs:
        margin = s["v0"] * s["tau"] / (2.0 * s["x0"])
        assert 1.55 <= margin <= 2.0 or s["reference"]


def test_trajectory_mix_keeps_the_atol_zero_draws():
    ops = workloads.trajectory_ops(5)
    sims = [o for o in ops if o["kind"] == "simulate"]
    assert sum(o["atol"] == 0.0 for o in sims) == workloads.TRAJECTORY_DRAWS // 8
    # only the atol=0 draws may raise, and only ZeroDivisionError
    assert all((o.get("expected_raise") == "ZeroDivisionError") == (o["atol"] == 0.0)
               for o in sims)
    assert not any("expected_raise" in o for o in ops if o["kind"] != "simulate")
    assert workloads.FIXED_RUNS[0] in ops and workloads.FIXED_RUNS[1] in ops


def test_marked_ops_become_probes_outside_the_measured_ops():
    plain = Op(lambda: 1, lambda r: None)
    marked = Op(lambda: 1 / 0, lambda r: None, "ZeroDivisionError")
    assert split_probes([plain, marked, plain]) == ([plain, plain], [marked])


def test_a_probe_that_raises_otherwise_fails_the_gate():
    ok = stats.OpTally()
    Op(lambda: 1, lambda r: None).tally(ok)
    probe = stats.OpTally()
    Op(lambda: 1 / 0, lambda r: None, "ZeroDivisionError").tally(probe)
    report = {"warmup": tally_report(ok), "run": tally_report(ok),
              "probe": tally_report(probe)}
    assert gate_problems(report, ["run", "probe"]) == []
    Op(lambda: [][0], lambda r: None, "ZeroDivisionError").tally(probe)
    report["probe"] = tally_report(probe)
    assert gate_problems(report, ["run", "probe"]) == [
        "raised IndexError: list index out of range"]


def test_percentile_reports_its_sample_counts():
    values = list(range(1, 101))
    p50 = stats.percentile(values, 50.0)
    assert (p50.value, p50.n, p50.beyond) == (50.5, 100, 50)
    p90 = stats.percentile(values, 90.0)
    assert p90.value == pytest.approx(90.1)
    assert (p90.n, p90.beyond) == (100, 10)
    assert stats.percentile([4.0], 90.0) == stats.Percentile(90.0, 4.0, 1, 0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(range(100)).q == 90.0
    assert stats.tail_percentile(range(91)).q == 75.0
    assert stats.tail_percentile(range(20)).q == 50.0
    assert stats.tail_percentile(range(19)) is None
    assert stats.tail_percentile(range(10_000)).q == 99.9
    assert stats.tail_percentile(range(9_000)).q == 99.0
    # ties at the top leave fewer samples strictly beyond
    assert stats.tail_percentile([1.0] * 80 + [2.0] * 20).q == 75.0


def test_fail_ratio_counts_raised_errors_and_wrong_outputs():
    tally = stats.OpTally()

    def boom():
        raise ZeroDivisionError

    tally.run(lambda: 1, lambda r: None)
    tally.run(boom, lambda r: None)
    tally.run(lambda: -1, lambda r: "negative" if r < 0 else None)
    assert (tally.attempted, tally.failed, tally.completed) == (3, 2, 1)
    assert tally.fail_ratio == pytest.approx(2 / 3)
    assert tally.raised == {"ZeroDivisionError": 1}
    assert tally.wrong == ["negative"]
    assert len(tally.latencies) == 1
    assert len(tally.problems) == 2


class DesignFailure(RuntimeError):
    pass


def test_a_raising_reference_op_fails_the_gate():
    def reference_design():
        raise DesignFailure("no root")

    ok = stats.OpTally()
    Op(lambda: 1, lambda r: None).tally(ok)
    tally = stats.OpTally()
    Op(reference_design, lambda r: None).tally(tally)
    report = {"warmup": tally_report(ok), "run": tally_report(tally)}
    assert gate_problems(report, ["run"]) == ["raised DesignFailure: no root"]


def test_an_expected_raise_counts_as_failed_but_passes_the_gate():
    def atol_zero_draw():
        raise ZeroDivisionError("float division by zero")

    tally = stats.OpTally()
    Op(atol_zero_draw, lambda r: None, "ZeroDivisionError").tally(tally)
    Op(lambda: 1 / 1, lambda r: None).tally(tally)
    assert (tally.attempted, tally.failed, tally.problems) == (2, 1, [])
    # the marker allows that exception only
    Op(lambda: [][0], lambda r: None, "ZeroDivisionError").tally(tally)
    assert tally.problems == ["raised IndexError: list index out of range"]


def _span(name, start, end, parent=None, op=0, **attrs):
    return tracing.Span(name, start, end, parent, op, attrs)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("designer.design_trajectories", 0.0, 10.0),
        _span("integrator.simulate", 1.0, 4.0, parent=0),
        _span("integrator.simulate", 3.0, 6.0, parent=0),  # overlaps its sibling
        _span("field.b_field", 8.0, 9.0, parent=0),
        _span("kernel.integrate", 2.0, 3.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])


def test_layer_metrics_split_busy_and_self_time():
    spans = [
        _span("op", 0.0, 10.0),
        _span("integrator.simulate", 1.0, 9.0, parent=0, steps=10, rejected=2,
              rhs=74, samples=11, active_wires=3),
        _span("kernel.integrate", 2.0, 8.0, parent=1),
    ]
    m = tracing.layer_metrics(spans)
    assert m["integrator.busy_s"][0] == pytest.approx(8.0)
    assert m["integrator.self_s"][0] == pytest.approx(2.0)
    assert m["kernel.busy_s"][0] == pytest.approx(6.0)
    assert m["kernel.share"][0] == pytest.approx(0.6)
    assert m["kernel.accept_ratio"][0] == pytest.approx(10 / 12)
    assert m["kernel.wire_force_evals"][0] == 74 * 3
    assert m["kernel.sample_bytes"][0] == 11 * 5 * 8


def test_tracer_patches_every_reference_and_restores_them():
    def entry(x):
        return 2 * x

    home = types.ModuleType("wiresplit._bench_home")
    user = types.ModuleType("wiresplit._bench_user")
    home.entry = entry
    user.entry_alias = entry
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        tracer = tracing.Tracer()
        tracer.install([(entry, "kernel.integrate", None)])
        assert home.entry(2) == 4 and user.entry_alias(3) == 6
        assert [s.name for s in tracer.spans] == ["kernel.integrate"] * 2
        tracer.uninstall()
        assert home.entry is entry and user.entry_alias is entry
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_op_counters_sum_per_op():
    spans = [
        _span("integrator.simulate", 0, 1, op=0, steps=5, rejected=1, rhs=37,
              samples=6, active_wires=1),
        _span("designer.closure_error", 1, 2, op=0),
        _span("integrator.simulate", 2, 3, op=1, steps=7, rejected=0, rhs=43,
              samples=8, active_wires=1),
    ]
    assert tracing.op_counters(spans) == {0: (5, 1, 37, 1), 1: (7, 0, 43, 0)}


def test_counter_mismatches_compare_passes_and_processes():
    run = [[5, 1, 37, 1], [7, 0, 43, 0], [5, 1, 37, 1], [7, 0, 43, 0]]
    assert tracing.counter_mismatches(run, 2, [list(c) for c in run]) == []
    drifted = run[:3] + [[7, 0, 44, 0]]
    assert [m["op"] for m in tracing.counter_mismatches(drifted, 2)] == [3]
    other = [list(c) for c in run]
    other[0][3] = 2  # one more closure evaluation in the other process
    assert tracing.counter_mismatches(run, 2, other) == [
        {"op": 0, "first": [5, 1, 37, 1], "again": [5, 1, 37, 2]}]
    assert tracing.counter_mismatches(run, 2, other[:3])[0]["op"] is None


def test_design_check_flags_closure_miss_and_pinned_values():
    good = {"closure_error_m": 1e-9, "max_separation_m": 399.98e-6,
            "wires": [{"current_a": 0.616467}, {"current_a": 0.0083}]}
    assert check_design(good, "inverse", True, 1e-8) is None
    assert "closure" in check_design(dict(good, closure_error_m=2e-8), "inverse", False, 1e-8)
    bad = dict(good, wires=[{"current_a": 0.62}, {"current_a": 0.0083}])
    assert "splitting_a" in check_design(bad, "inverse", True, 1e-8)
