"""reduce_type1: the paper's Cook reduction, offline, in fresh interpreters.

Each pass runs ``Type1Reduction(path_query(k)).run(phi, oracle="wmc")``
over the seeded instance set in a new interpreter, so the circuit
cache starts cold and no store is attached.  Every oracle call grounds
and compiles a lineage no earlier call produced.

Run as a script this module is one pass (``pb_reduce.py SEED PASS``):
it prints one JSON line with the timings and checks.  Before the
instances a pass also times the block-matrix endpoint sweep
``z_matrix_direct(q, 1)`` of each query on a warm cache.  ``run`` starts
a fixed number of passes one after another, set by ``--seconds`` alone;
a traced run alternates traced and untraced passes.

The pipeline is single-threaded and does no I/O, so the end-to-end
figures are the CPU time of the pass interpreter's main thread
(``time.thread_time_ns``): its wall time less any time it spent
waiting for a CPU.  Thread time, not process time, because importing
numpy starts BLAS threads whose CPU time is not the pipeline's.  The
reference loop of ``pb_calib`` is timed before the sweeps and after
each block of work, and every figure is reported at reference speed,
scaled by the loop timings on both sides of it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import pb_calib
import pb_common
import pb_inputs
import pb_layers
import pb_stats

#: A pass whose interpreter has not finished by then failed.
PASS_TIMEOUT_S = 120.0
#: One pass per this many seconds of ``--seconds`` (a pass takes 4-6 s
#: here), at least ``MIN_PASSES``.  The count depends on ``--seconds``
#: only, never on how fast the program is.
SECONDS_PER_PASS = 3.0
MIN_PASSES = 3
#: Warm block sweeps timed per query before a pass's instances.
SWEEP_REPEATS = 50


def _pass(seed: int, pass_index: int) -> dict:
    """One pass over the instance set (runs in the child)."""
    import resource

    from repro.core.catalog import path_query
    from repro.counting.p2cnf import P2CNF
    from repro.reduction.block_matrix import z_matrix_direct
    from repro.reduction.type1 import Type1Reduction
    from repro.tid import wmc

    import pb_trace

    ready = time.monotonic_ns()
    ready_cpu = time.thread_time_ns()
    # calibration[i] is taken before block i of work: the sweeps, then
    # each instance; the last one after the last instance.
    calibration = [pb_calib.sample_here()]
    specs = pb_inputs.reduction_instances(seed)
    # The endpoint sweep that gives each query its block matrix A(1),
    # timed warm (one untimed call compiles the block): one sweep
    # takes about half a millisecond, too little to time once.  The
    # cache is cleared afterwards, so the instances start cold.
    sweeps = {}
    for k in sorted({k for k, _, _ in specs}):
        z_matrix_direct(path_query(k), 1)
        sweeps[k] = []
        for _ in range(SWEEP_REPEATS):
            start = time.thread_time_ns()
            z_matrix_direct(path_query(k), 1)
            sweeps[k].append(time.thread_time_ns() - start)
    wmc.clear_circuit_cache()
    calibration.append(pb_calib.sample_here())

    class TimedReduction(Type1Reduction):
        """Times each oracle call; the reduction itself is unchanged."""

        oracle_ns: list

        def wmc_oracle_value(self, phi, params):
            start = time.thread_time_ns()
            value = super().wmc_oracle_value(phi, params)
            self.oracle_ns.append(time.thread_time_ns() - start)
            return value

    recorder = pb_trace.current()
    instances = []
    for index, (k, n, edges) in enumerate(specs):
        phi = P2CNF(n, edges)
        timing: dict = {}

        def instance(k=k, phi=phi, timing=timing):
            reduction = TimedReduction(path_query(k))
            reduction.oracle_ns = []
            result = reduction.run(phi, oracle="wmc")
            timing["oracle_ns"] = reduction.oracle_ns
            return result

        rid = f"p{pass_index}-i{index}"
        start, start_cpu = time.monotonic_ns(), time.thread_time_ns()
        if recorder is not None:
            result = recorder.span("reduction", instance, rid=rid)
        else:
            result = instance()
        wall = time.monotonic_ns() - start
        cpu = time.thread_time_ns() - start_cpu
        calibration.append(pb_calib.sample_here())
        expected = phi.count_satisfying_brute()
        instances.append({
            "rid": rid, "wall_ns": wall, "cpu_ns": cpu,
            "calls": result.oracle_calls,
            "correct": result.model_count == expected,
            "detail": f"k={k} n={n} edges={edges}: got "
                      f"{result.model_count}, expected {expected}",
            **timing})
    return {"ready_ns": ready, "ready_cpu_ns": ready_cpu,
            "calibration_ns": calibration, "instances": instances,
            "sweep_ns": [sweeps[k] for k in sorted(sweeps)],
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _spawn_pass(seed: int, pass_index: int, trace_dir) -> dict:
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, __file__, str(seed), str(pass_index)],
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        env=pb_common.child_env(trace_dir), cwd=pb_common.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {pass_index} exited with "
                           f"{proc.returncode}: {proc.stderr[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_wall_s"] = (out["ready_ns"] - spawned) / 1e9
    _at_reference_speed(out)
    out["traced"] = trace_dir is not None
    return out


def _at_reference_speed(record) -> None:
    """Add ``*_ref_ns`` figures: each timing scaled by the reference
    loop timings on both sides of its block of work."""
    calibration = record["calibration_ns"]
    record["setup_ref_ns"] = (record["ready_cpu_ns"]
                              * pb_calib.scale(calibration[0]))
    factor = pb_calib.scale(calibration[0] + calibration[1])
    record["sweep_ref_ns"] = [[ns * factor for ns in times]
                              for times in record["sweep_ns"]]
    for index, item in enumerate(record["instances"]):
        factor = pb_calib.scale(calibration[index + 1]
                                + calibration[index + 2])
        item["ref_ns"] = item["cpu_ns"] * factor
        item["oracle_ref_ns"] = [ns * factor for ns in item["oracle_ns"]]


def pass_count(seconds: float, trace: bool) -> int:
    """Passes in a run; a traced run has as many untraced as traced."""
    count = max(MIN_PASSES, round(seconds / SECONDS_PER_PASS))
    return 2 * max(2, round(count / 2)) if trace else count


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    trace_dir = workdir / "spans"
    trace_dir.mkdir()
    passes = []
    for index in range(pass_count(seconds, trace)):
        traced = trace and index % 2 == 0
        passes.append(_spawn_pass(seed, index,
                                  str(trace_dir) if traced else None))

    # A pass that raises exits non-zero and fails the whole run above.
    items = [item for record in passes for item in record["instances"]]
    failures = [item["detail"] for item in items if not item["correct"]]
    result = {"attempted": sum(item["calls"] for item in items),
              "failed": 0, "correct": not failures,
              "failures": failures[:5], "passes": len(passes)}

    if not trace:
        # Every pass repeats the same operations: keep each one's
        # median over the run's passes.
        def per_op(index, field):
            runs = [_as_list(r["instances"][index][field]) for r in passes]
            return [statistics.median(times) for times in zip(*runs)]

        def sweep(field):
            # Mean over the queries of each one's median sweep: the two
            # queries' sweeps differ in size, so one pooled median would
            # fall between their distributions.
            return statistics.mean(
                statistics.median(ns for r in passes for ns in r[field][q])
                for q in range(len(passes[0][field]))) / 1e6

        count = len(passes[0]["instances"])
        instances = pb_common.ms(per_op(i, "ref_ns")[0]
                                 for i in range(count))
        oracle = pb_common.ms(ns for i in range(count)
                              for ns in per_op(i, "oracle_ref_ns"))
        wall = sum(instances) / 1e3
        result["tail_samples"] = pb_stats.samples_beyond(
            instances, pb_stats.quantile(instances, 0.99))
        result["raw"] = {
            "setup_wall_s": statistics.median(
                r["setup_wall_s"] for r in passes),
            "setup_cpu_s": statistics.median(
                r["ready_cpu_ns"] for r in passes) / 1e9,
            "wall_cpu_s": sum(per_op(i, "cpu_ns")[0]
                              for i in range(count)) / 1e9,
            "sweep_cpu_ms": sweep("sweep_ns"),
            "calibration_ms": statistics.median(
                ns for r in passes for block in r["calibration_ns"]
                for ns in block) / 1e6}
        result["metrics"] = pb_common.e2e_metrics(
            setups=[r["setup_ref_ns"] / 1e9 for r in passes],
            pass_walls=[wall], op_latencies=instances,
            sweep_latencies=[sweep("sweep_ref_ns")],
            evaluate_latencies=oracle,
            completed=sum(item["calls"] for item in passes[0]["instances"]),
            busy_s=wall,
            rss_mb=statistics.median(r["rss_kb"] for r in passes) / 1024)
        return result

    traced = [r for r in passes if r["traced"]]
    plain = [r for r in passes if not r["traced"]]
    client = {item["rid"]: item["wall_ns"]
              for r in traced for item in r["instances"]}
    calls = sum(item["calls"] for r in traced for item in r["instances"])
    metrics = pb_layers.layer_metrics(pb_layers.load_spans(trace_dir),
                                      client, calls)
    metrics["trace.overhead_frac"] = (
        min(map(_pass_wall, traced)) / min(map(_pass_wall, plain)) - 1)
    metrics["failed_frac"] = 0.0
    result["metrics"] = metrics
    return result


def _pass_wall(record) -> int:
    return sum(item["wall_ns"] for item in record["instances"])


def _as_list(value):
    return value if isinstance(value, list) else [value]


if __name__ == "__main__":
    sys.path.insert(0, str(pb_common.BENCH_DIR))
    print(json.dumps(_pass(int(sys.argv[1]), int(sys.argv[2]))))
