"""Flat-tape lanes vs the node-walk batch interpreter.

The tape (``repro.booleans.tape``) is the library's only batch
evaluator; the node-walk interpreter it replaced survives here, frozen
as ``node_walk_batch``, as the baseline both kernels are gated against.

Shape expectations: on the block-matrix theta-screening family (k
weight lanes over one path-block lineage, each lane pinning a couple
of tuple marginals on a shared base — the ``y_probability_sweep`` /
``link_matrix_sweep`` grid shape) the tape float kernel must beat the
node walk's float fast path by **>= 10x** when numpy is importable:
the node walk pays a Python-level lookup, conversion, and dispatch per
node per lane, while the tape pays one base column plus the overrides
and one vector operation per instruction.  The tape's integer exact
kernel must beat the node walk's ``Fraction`` pass by
``EXACT_SPEEDUP_GATE`` while staying *bit-identical* to it, and the
tape's serialized bytes must not depend on ``PYTHONHASHSEED``.

Runable two ways:

* ``pytest benchmarks/bench_tape.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_tape.py [--quick]`` — a self-contained
  smoke run (CI uses ``--quick``) that exits non-zero if either tape
  kernel loses its margin, drifts from the exact values, or the tape
  serializes differently under two hash seeds.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import _bench_io

from repro.booleans.circuit import (
    AND, ITE, LEAF, ONE, TRUE, ZERO, WeightOverlay, compile_cnf,
    make_lookup,
)
from repro.booleans import tape as tape_module
from repro.core import catalog
from repro.reduction.blocks import path_block
from repro.tid.lineage import lineage

F = Fraction
SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The acceptance floor for tape-float over node-float (numpy kernel;
#: the stdlib fallback kernel only has to *win*, not rout).
SPEEDUP_GATE = 10.0

#: The acceptance floor for tape-exact over node-exact at p=8 with 16
#: lanes (``--quick``); see CHANGES.md for the runs it was set from.
EXACT_SPEEDUP_GATE = 4.0


def _require_finite(values, var) -> None:
    for lane, value in enumerate(values):
        if not math.isfinite(value):
            raise ValueError(
                f"non-finite weight {value!r} for variable {var!r} in "
                f"float lane {lane}")


def node_walk_batch(circuit, weight_specs, numeric="exact"):
    """The node-walk batch interpreter the tape replaced, frozen as
    the benchmark baseline: one pass over the node table keeping a
    row of k values per node, scalar while uniform across lanes."""
    if numeric == "exact":
        to_num, one, zero = Fraction, ONE, ZERO
    else:
        to_num, one, zero = float, 1.0, 0.0
    weight_specs = list(weight_specs)
    k = len(weight_specs)
    lookups = [make_lookup(spec) for spec in weight_specs]
    guard = _require_finite if to_num is float else None
    rows: list = [None] * len(circuit.nodes)
    for i, node in enumerate(circuit.nodes):
        kind = node[0]
        if kind is ITE:
            var = node[1]
            ps = [to_num(lookup(var)) for lookup in lookups]
            if guard is not None:
                guard(ps, var)
            uniform_p = all(p == ps[0] for p in ps)
            hi, lo = rows[node[2]], rows[node[3]]
            hi_wide = isinstance(hi, list)
            lo_wide = isinstance(lo, list)
            if uniform_p and not hi_wide and not lo_wide:
                p = ps[0]
                rows[i] = p * hi + (one - p) * lo
            else:
                his = hi if hi_wide else (hi,) * k
                los = lo if lo_wide else (lo,) * k
                rows[i] = [ps[j] * his[j] + (one - ps[j]) * los[j]
                           for j in range(k)]
        elif kind is AND:
            scalar = one
            wide: list = []
            for child in node[1]:
                crow = rows[child]
                if isinstance(crow, list):
                    wide.append(crow)
                else:
                    scalar *= crow
                    if not scalar:
                        break
            if not scalar or not wide:
                rows[i] = scalar
            else:
                row = [scalar * x for x in wide[0]]
                for crow in wide[1:]:
                    for j in range(k):
                        row[j] *= crow[j]
                rows[i] = row
        elif kind is LEAF:
            var = node[1]
            ps = [to_num(lookup(var)) for lookup in lookups]
            if guard is not None:
                guard(ps, var)
            rows[i] = ps[0] if all(p == ps[0] for p in ps) else ps
        elif kind is TRUE:
            rows[i] = one
        else:
            rows[i] = zero
    root = rows[circuit.root]
    return list(root) if isinstance(root, list) else [root] * k


def theta_workload(p=8, k=256):
    """The block-matrix theta-screening family: k weight lanes over
    one path-block lineage, lane j pinning two tuple marginals to
    lane-specific values on the shared block base — the sweep shape
    ``TypeIIStructure.y_probability_sweep`` and ``link_matrix_sweep``
    feed to ``probability_batch``.

    Returns the compiled circuit plus the same lanes in two spellings:
    closures over ``(pinned, base)`` — the shape the sweeps passed to
    the node interpreter before the tape engine existed — and
    ``WeightOverlay`` specs, the shape they pass now.
    """
    query = catalog.rst_query()
    tid = path_block(query, p)
    formula = lineage(query, tid)
    circuit = compile_cnf(formula)
    variables = sorted(circuit.variables(), key=repr)
    n = len(variables)
    base = tid.probability
    overlays = [
        {variables[(2 * j + t) % n]: F(1 + (j + t) % 97, 101)
         for t in range(2)}
        for j in range(k)]
    closure_specs = [
        (lambda tok, pinned=dict(o): pinned.get(tok, base(tok)))
        for o in overlays]
    overlay_specs = [WeightOverlay(base, o) for o in overlays]
    return circuit, closure_specs, overlay_specs


def run_node_float(circuit, specs):
    return node_walk_batch(circuit, specs, numeric="float")


def run_node_exact(circuit, specs):
    return node_walk_batch(circuit, specs, numeric="exact")


def run_tape_float(circuit, specs):
    return circuit.probability_batch(specs, numeric="float")


def run_tape_exact(circuit, specs):
    return circuit.probability_batch(specs, numeric="exact")


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_node_float_baseline(benchmark):
    circuit, closure_specs, _ = theta_workload(p=8, k=32)
    values = benchmark(run_node_float, circuit, closure_specs)
    assert all(0 < v < 1 for v in values)


def test_tape_float(benchmark):
    circuit, closure_specs, overlay_specs = theta_workload(p=8, k=32)
    values = benchmark(run_tape_float, circuit, overlay_specs)
    exact = circuit.probability_batch(closure_specs)
    assert all(abs(a - float(t)) < 1e-9 for a, t in zip(values, exact))


def test_node_exact_baseline(benchmark):
    circuit, closure_specs, _ = theta_workload(p=8, k=32)
    values = benchmark(run_node_exact, circuit, closure_specs)
    assert all(0 < v < 1 for v in values)


def test_tape_exact(benchmark):
    circuit, _, overlay_specs = theta_workload(p=8, k=32)
    values = benchmark(run_tape_exact, circuit, overlay_specs)
    assert values == run_node_exact(circuit, overlay_specs)


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def _best_of(fn, *args, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def check_tape_beats_node(p, k) -> tuple[bool, dict]:
    """tape-float must beat node-float by ``SPEEDUP_GATE`` on the
    theta family (numpy kernel; the fallback kernel must just win),
    while agreeing with the exact values to 1e-9."""
    circuit, closure_specs, overlay_specs = theta_workload(p=p, k=k)
    start = time.perf_counter()
    tape = tape_module.flatten_circuit(circuit)
    flatten_ms = (time.perf_counter() - start) * 1e3
    t_node, node_floats = _best_of(run_node_float, circuit,
                                   closure_specs)
    t_tape, tape_floats = _best_of(run_tape_float, circuit,
                                   overlay_specs)
    speedup = t_node / t_tape
    have_numpy = tape_module._np is not None
    record = {
        "p": p, "k": k,
        "instructions": tape.n_instructions,
        "flatten_ms": round(flatten_ms, 2),
        "node_float_ms": round(t_node * 1e3, 2),
        "tape_float_ms": round(t_tape * 1e3, 2),
        "speedup": round(speedup, 2),
        "numpy": have_numpy,
        "gate": SPEEDUP_GATE if have_numpy else 1.0,
    }
    exact = circuit.probability_batch(overlay_specs)
    for label, floats in (("node", node_floats), ("tape", tape_floats)):
        if any(abs(a - float(t)) > 1e-9 for a, t in zip(floats, exact)):
            print(f"FLOAT DRIFT beyond 1e-9 in the {label} engine at "
                  f"p={p} k={k}", file=sys.stderr)
            return False, record
    gate = SPEEDUP_GATE if have_numpy else 1.0
    kernel = "numpy" if have_numpy else "stdlib-fallback"
    verdict = "" if speedup >= gate else f"  <-- below {gate}x gate"
    print(f"p={p:2d} k={k:4d} node-float {t_node * 1e3:8.2f}ms  "
          f"tape-float {t_tape * 1e3:7.2f}ms ({speedup:5.1f}x, "
          f"{kernel}, flatten {flatten_ms:.2f}ms){verdict}")
    return speedup >= gate, record


def check_tape_exact_beats_node(p, k) -> tuple[bool, dict]:
    """tape-exact must equal the node walk *exactly* (the same
    Fractions, not approximations) on the same lanes, and beat it by
    ``EXACT_SPEEDUP_GATE``."""
    circuit, _, overlay_specs = theta_workload(p=p, k=k)
    tape_module.tape_for_circuit(circuit)  # time the kernel, not flatten
    t_node, node_exact = _best_of(run_node_exact, circuit,
                                  overlay_specs)
    t_tape, tape_exact = _best_of(run_tape_exact, circuit,
                                  overlay_specs)
    speedup = t_node / t_tape
    record = {
        "p": p, "k": k,
        "node_exact_ms": round(t_node * 1e3, 2),
        "tape_exact_ms": round(t_tape * 1e3, 2),
        "speedup": round(speedup, 2),
        "gate": EXACT_SPEEDUP_GATE,
        "identical": tape_exact == node_exact,
    }
    if tape_exact != node_exact:
        print(f"EXACT MISMATCH: tape-exact != node walk at "
              f"p={p} k={k}", file=sys.stderr)
        return False, record
    verdict = "" if speedup >= EXACT_SPEEDUP_GATE \
        else f"  <-- below {EXACT_SPEEDUP_GATE}x gate"
    print(f"p={p:2d} k={k:4d} node-exact {t_node * 1e3:8.2f}ms  "
          f"tape-exact {t_tape * 1e3:7.2f}ms ({speedup:5.1f}x, "
          f"bit-identical){verdict}")
    return speedup >= EXACT_SPEEDUP_GATE, record


_HASHSEED_PROBE = """
import hashlib, json
from fractions import Fraction
from repro.booleans.circuit import WeightOverlay, compile_cnf
from repro.booleans.tape import flatten_circuit
from repro.core import catalog
from repro.reduction.blocks import path_block
from repro.tid.lineage import lineage

query = catalog.rst_query()
tid = path_block(query, 6)
circuit = compile_cnf(lineage(query, tid))
tape = flatten_circuit(circuit)
variables = sorted(circuit.variables(), key=repr)
specs = [WeightOverlay(tid.probability,
                       {variables[j % len(variables)]:
                        Fraction(j + 1, 19)})
         for j in range(8)]
values = tape.evaluate(specs, numeric="exact")
print(json.dumps({
    "tape_sha256": hashlib.sha256(tape.to_bytes()).hexdigest(),
    "values": [str(v) for v in values],
}))
"""


def _probe(hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _HASHSEED_PROBE], env=env,
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def check_hashseed_determinism() -> tuple[bool, dict]:
    """Tape bytes and tape-exact values must be identical across
    ``PYTHONHASHSEED`` values (the store's warm-start contract)."""
    a, b = _probe("0"), _probe("12345")
    record = {"seeds": ["0", "12345"],
              "tape_sha256": a["tape_sha256"],
              "identical": a == b}
    if a != b:
        print("HASHSEED DRIFT: tape bytes or exact values differ "
              "between PYTHONHASHSEED=0 and 12345", file=sys.stderr)
        return False, record
    print(f"hashseed: tape bytes + exact values identical across "
          f"seeds (sha256 {a['tape_sha256'][:16]}...)")
    return True, record


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    shapes = [(8, 512)] if quick else [(8, 512), (8, 1024), (10, 1024)]
    ok = True
    records = []
    for p, k in shapes:
        shape_ok, record = check_tape_beats_node(p, k)
        ok &= shape_ok
        records.append(record)
    exact_ok, exact = check_tape_exact_beats_node(8 if quick else 10,
                                                  16 if quick else 32)
    ok &= exact_ok
    seed_ok, seeds = check_hashseed_determinism()
    ok &= seed_ok
    _bench_io.emit("tape", {
        "quick": quick,
        "gate": SPEEDUP_GATE,
        "exact_gate": EXACT_SPEEDUP_GATE,
        "shapes": records,
        "exact": exact,
        "hashseed": seeds,
        "ok": bool(ok),
    })
    if not ok:
        print("perf regression: a tape kernel lost its margin, "
              "drifted, or broke determinism", file=sys.stderr)
        return 1
    print("ok: tape-float and tape-exact clear their gates, "
          "tape-exact is bit-identical, serialization is "
          "hashseed-stable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
