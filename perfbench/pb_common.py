"""Helpers shared by the workloads: child environments, memory
readings, and the end-to-end metric table."""

from __future__ import annotations

import os
import statistics

from pathlib import Path

import pb_stats

BENCH_DIR = Path(__file__).resolve().parent
#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HOOK_DIR = BENCH_DIR / "hook"
#: Pinned for every process the benchmark starts, so set iteration
#: order, and with it compile order, is the same in every run.
PYTHONHASHSEED = "0"
#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: name -> unit of every end-to-end metric, in report order.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "sweep_p50_ms": "ms",
    "evaluate_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env(trace_dir: str | None = None) -> dict:
    """Environment for a process under test: the checkout's ``src``
    on the path, the hash seed pinned, and — for traced processes —
    the startup hook plus the directory its spans go to."""
    env = dict(os.environ)
    paths = [str(SRC)]
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        paths.insert(0, str(HOOK_DIR))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    return env


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def children(pid: int) -> list[int]:
    """Direct children of ``pid``, from ``/proc``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of ``pid`` plus its children (a dispatcher
    and its pool workers), in MiB."""
    total = _status_kb(pid, "VmHWM")
    for child in children(pid):
        total += _status_kb(child, "VmHWM")
    return total / 1024


def ms(ns_values) -> list[float]:
    return [value / 1e6 for value in ns_values]


def e2e_metrics(*, setups, pass_walls, op_latencies, sweep_latencies,
                evaluate_latencies, completed, busy_s, rss_mb) -> dict:
    """The end-to-end table from raw samples (latencies in ms)."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_walls),
        "throughput_rps": completed / busy_s,
        "latency_p50_ms": pb_stats.quantile(op_latencies, 0.5),
        "latency_p99_ms": pb_stats.quantile(op_latencies, 0.99),
        "sweep_p50_ms": pb_stats.quantile(sweep_latencies, 0.5),
        "evaluate_p50_ms": pb_stats.quantile(evaluate_latencies, 0.5),
        "peak_rss_mb": rss_mb,
    }
