"""Tests for the benchmark's own arithmetic and checks."""

import json

from fractions import Fraction

import pytest

import pb_common
import pb_inputs
import pb_layers
import pb_stats

from pb_check import Checker


# ----------------------------------------------------------------------
# Quantile selection
# ----------------------------------------------------------------------
def test_p99_of_1000_samples_leaves_ten_beyond():
    values = list(range(1000, 0, -1))
    value = pb_stats.quantile(values, 0.99)
    assert value == 990
    assert pb_stats.samples_beyond(values, value) == 10


def test_p99_of_fewer_samples_leaves_fewer_than_ten_beyond():
    # Why a service run needs at least 1000 requests in its window.
    values = list(range(1, 1000))
    assert pb_stats.samples_beyond(
        values, pb_stats.quantile(values, 0.99)) == 9
    values = list(range(1, 2401))
    assert pb_stats.samples_beyond(
        values, pb_stats.quantile(values, 0.99)) == 24


def test_median_is_nearest_rank_and_order_free():
    assert pb_stats.quantile([5, 1, 4, 2, 3], 0.5) == 3
    assert pb_stats.quantile([4, 1, 3, 2], 0.5) == 2
    with pytest.raises(ValueError):
        pb_stats.quantile([], 0.5)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children_once():
    # Parent [0, 100] with children [10, 40] and [60, 70]; the
    # grandchild [15, 20] lies inside a child and must not count again.
    assert pb_stats.self_time(0, 100, [(10, 40), (60, 70)]) == 60
    assert pb_stats.self_time(10, 40, [(15, 20)]) == 25


def test_self_time_with_overlapping_and_protruding_children():
    # Children overlap each other (work on two threads) and one sticks
    # out past the parent's end: only their union inside counts.
    children = [(10, 30), (20, 50), (90, 120)]
    assert pb_stats.union_length([(10, 30), (20, 50)]) == 40
    assert pb_stats.self_time(0, 100, children) == 100 - 40 - 10


def _span(pid, sid, parent, layer, start, end, info=None):
    return pb_layers.Span(pid, (sid, parent, layer, start, end, info))


def test_layer_metrics_partition_request_time_across_processes():
    spans = [
        # Dispatcher process 1: handle_line -> parse, worker hop.
        _span(1, 1, 0, "server", 0, 1000, {"rid": "r0"}),
        _span(1, 2, 1, "protocol", 10, 30),
        _span(1, 3, 1, "dispatch", 100, 900, {"child": "r0.w0.1"}),
        # Worker process 2: handle_line -> resolve (miss) -> lineage.
        _span(2, 1, 0, "server", 200, 800, {"rid": "r0.w0.1"}),
        _span(2, 2, 1, "resolver", 250, 400),
        _span(2, 3, 2, "lineage", 300, 350),
        _span(2, 4, 1, "circuit.eval", 500, 700, {"lanes": 16}),
    ]
    metrics = pb_layers.layer_metrics(spans, {"r0": 1500}, ops=1)
    s = 1e-9
    assert metrics["server.self_s"] == pytest.approx(
        (1000 - 20 - 800 + 600 - 150 - 200) * s)
    assert metrics["dispatch.hop_s"] == pytest.approx(200 * s)
    assert metrics["resolver.resolve_s"] == pytest.approx(100 * s)
    assert metrics["server.wire_s"] == pytest.approx(500 * s)
    assert metrics["circuit.eval_lanes"] == 16
    assert metrics["resolver.hit_ratio"] == 0.0
    assert metrics["lineage.calls_per_request"] == 1
    assert metrics["trace.unaccounted_frac"] == 0.0


def test_layer_metrics_flag_time_counted_twice():
    # Two children of one span running in parallel on two threads:
    # their self times together exceed the parent's interval.
    spans = [
        _span(1, 1, 0, "server", 0, 100, {"rid": "r1"}),
        _span(1, 2, 1, "circuit.compile", 0, 100, {"nodes": 5}),
        _span(1, 3, 1, "circuit.eval", 0, 100, {"lanes": 1}),
    ]
    metrics = pb_layers.layer_metrics(spans, {"r1": 100}, ops=1)
    assert metrics["trace.unaccounted_frac"] == pytest.approx(1.0)


def test_layer_metrics_need_a_span_for_every_request():
    with pytest.raises(ValueError, match="no server span"):
        pb_layers.layer_metrics([], {"r9": 10}, ops=1)


# ----------------------------------------------------------------------
# Failure share
# ----------------------------------------------------------------------
def test_failed_frac_counts_refused_and_timed_out_against_attempted():
    outcomes = ["ok", "ok", "quota-exceeded", "timeout", "unauthorized",
                "ok", "connection", "ok"]
    assert pb_stats.failed_frac(outcomes) == 4 / 8
    assert pb_stats.failed_frac(["ok"] * 3) == 0.0
    with pytest.raises(ValueError):
        pb_stats.failed_frac([])


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def test_checker_rejects_a_deliberately_wrong_exact_value():
    checker = Checker()
    assert checker.exact("1/3", Fraction(1, 3), "right")
    assert not checker.exact("1/2", Fraction(1, 3), "wrong")
    # Equal as numbers but not as the canonical wire form.
    assert not checker.exact("2/6", Fraction(1, 3), "unreduced")
    assert not checker.ok
    assert checker.failed == 2 and checker.checked == 3
    assert checker.failures[0].startswith("wrong")


def test_checker_float_interval_and_world_checks():
    checker = Checker()
    assert checker.close(1 / 3, Fraction(1, 3), "float")
    assert not checker.close(0.3334, Fraction(1, 3), "far float")
    assert not checker.close(True, Fraction(1), "bool is not a float")
    assert checker.contains("1/4", "3/4", Fraction(1, 2), "inside")
    assert not checker.contains("0", "1/4", Fraction(1, 2), "outside")

    class Formula:
        def evaluate(self, true_vars):
            return "x" in true_vars

    assert checker.satisfies(Formula(), {"x": True, "y": False}, "sat")
    assert not checker.satisfies(Formula(), {"x": False}, "unsat")
    assert checker.failed == 4


def test_reply_check_rejects_a_wrong_library_value():
    pytest.importorskip("repro")
    import pb_serve

    ref = pb_serve.Reference()
    request = pb_inputs.Request("evaluate", {"query": "(R|A)(A|T)",
                                             "p": 1},
                                "evaluate", ("(R|A)(A|T)", 1))
    right = str(ref.value(request.key))
    checker = Checker()
    pb_serve.check_reply(checker, ref, request, {"value": right})
    assert checker.ok
    wrong = str(ref.value(request.key) + Fraction(1, 1024))
    pb_serve.check_reply(checker, ref, request, {"value": wrong})
    assert not checker.ok


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_inputs_are_a_function_of_the_seed():
    assert (pb_inputs.reduction_instances(3)
            == pb_inputs.reduction_instances(3)
            != pb_inputs.reduction_instances(4))
    a, b = pb_inputs.ChurnInputs(3), pb_inputs.ChurnInputs(3)
    assert [a.request(i).params for i in range(2000)] \
        == [b.request(i).params for i in range(2000)]


def test_churn_working_set_exceeds_the_resolver_cache():
    inputs = pb_inputs.ChurnInputs(0)
    assert inputs.keys > 128
    warm = set(inputs.unsafe) | set(inputs.safe)
    new = [inputs.request(i).key for i in range(3 * pb_inputs.CHURN_PASS)
           if inputs.request(i).key not in warm]
    # Every new-formula slot gets a key never used before.
    assert len(new) == len(set(new))
    assert 0.03 < len(new) / (3 * pb_inputs.CHURN_PASS) < 0.07


def test_exact_mix_is_bench_load_mix_in_every_pass():
    for seed in (0, 1):
        ops = [r.op for r in pb_inputs.exact_schedule(seed)]
        assert (ops.count("sweep"), ops.count("evaluate"),
                ops.count("evaluate_batch")) == (210, 140, 70)


def test_churn_mix_is_exact_in_every_pass():
    base = pb_inputs.ChurnInputs(5).base
    assert len(base) == pb_inputs.CHURN_PASS
    assert base.count(None) == round(pb_inputs.CHURN_NEW_SHARE
                                     * pb_inputs.CHURN_PASS)
    ops = [r.op for r in base if r is not None]
    assert ops.count("estimate") == 75 and ops.count("top_k") == 35


def test_reduction_pass_count_depends_on_seconds_only():
    import pb_reduce
    assert pb_reduce.pass_count(20, False) == 7
    assert pb_reduce.pass_count(1, False) == pb_reduce.MIN_PASSES
    assert pb_reduce.pass_count(20, True) % 2 == 0


def test_benchmark_json_names_the_metrics_the_harness_reports():
    path = pb_common.ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json next to this checkout")
    spec = json.loads(path.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == pb_common.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == pb_layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} \
        == {"reduce_type1", "serve_exact", "serve_churn"}


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def test_calibration_scales_to_reference_speed_and_restores_affinity():
    import os

    import pb_calib
    ref = pb_calib.REFERENCE_NS
    assert pb_calib.scale([ref, ref, ref]) == 1.0
    # Twice as slow a loop halves every time reported.
    assert pb_calib.scale([2 * ref, 2 * ref, 9 * ref]) == 0.5
    cpus = os.sched_getaffinity(0)
    points = pb_calib.sample(1)
    assert len(points) == len(cpus) and all(ns > 0 for ns in points)
    assert os.sched_getaffinity(0) == cpus
