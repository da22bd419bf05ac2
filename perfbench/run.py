"""The repo benchmark: run one workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json``
and ``perfbench/README.md``): ``reduce_type1``, ``serve_exact`` and
``serve_churn``.  ``--trace 0`` measures the end-to-end metrics with
the program untouched; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.

The workload runs in a fresh process, in its own process group, under
a hard timeout; whatever happens, every process of the group is
killed and reaped and the run's scratch directory (servers' circuit
stores, span files) is deleted.  The next-to-last line of standard
output records the run's provenance; the last line is the result::

    {"correct": true, "attempted": 5320, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 5.1, "unit": "ms"}, ...}}

The exit code is 0 only when every checked answer was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import pb_common
import pb_layers

WORKLOADS = ("reduce_type1", "serve_exact", "serve_churn")
#: A run that has not finished by then is killed and counts as failed.
HARD_TIMEOUT_S = 170.0
WORK_DIR = ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _git_commit() -> str | None:
    if not (pb_common.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=pb_common.ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(pb_common.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(pb_common.SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "pythonhashseed": pb_common.PYTHONHASHSEED,
    }


def _group_alive(pgid: int) -> bool:
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int) -> None:
    """SIGKILL whatever is left of the run's process group and wait
    until none of it is running."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def run_workload(args, workdir) -> tuple[dict | None, str | None]:
    """``(result, None)`` or ``(None, reason)``."""
    proc = subprocess.Popen(
        [sys.executable, str(pb_common.BENCH_DIR / "pb_main.py"),
         args.workload, str(args.seed), str(args.seconds),
         str(args.trace), str(workdir)],
        env=pb_common.child_env(), cwd=pb_common.ROOT,
        start_new_session=True)
    try:
        code = proc.wait(timeout=HARD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _reap_group(proc.pid)
        proc.wait()
    if code is None:
        return None, f"timed out after {HARD_TIMEOUT_S:g} s"
    result_path = workdir / "result.json"
    if code != 0 or not result_path.exists():
        error = workdir / "error.txt"
        detail = (error.read_text(encoding="utf-8")[-2000:]
                  if error.exists() else "no result written")
        return None, f"workload exited with {code}: {detail}"
    return json.loads(result_path.read_text(encoding="utf-8")), None


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    if not (pb_common.SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {pb_common.SRC}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    record = provenance(args)
    workdir = pb_common.ROOT / WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, reason = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if (result is not None and args.trace
            and result["metrics"]["trace.unaccounted_frac"]
            > pb_layers.ACCOUNTING_TOLERANCE):
        # The per-layer figures do not add up to what the client saw,
        # so they cannot be trusted: a failed run, not a result.
        result, reason = None, (
            f"layer self times miss the client time by "
            f"{result['metrics']['trace.unaccounted_frac']:.1%}, more "
            f"than {pb_layers.ACCOUNTING_TOLERANCE:.0%}")
    if result is None:
        record["failure"] = reason
        print(json.dumps({"provenance": record}))
        print(f"perfbench: {args.workload} failed: {reason}",
              file=sys.stderr)
        return 1
    units = ({name: unit for name, (unit, _) in pb_layers.PER_LAYER.items()}
             if args.trace else pb_common.E2E_UNITS)
    metrics = result.pop("metrics")
    record.update(result)
    print(json.dumps({"provenance": record}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    if not result["correct"]:
        print(f"perfbench: wrong answers: {result['failures']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
