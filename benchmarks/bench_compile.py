"""Knowledge compilation: compile-once-evaluate-many vs recompute WMC.

Shape expectations: compiling a block-matrix-sized lineage costs about
one run of the recursive Shannon engine (``tests/shannon_oracle.py``,
loaded by path), after which every extra weight vector is a linear
circuit pass — so for k >= 4 evaluations the compiled pipeline must
beat k independent recursive runs (the pre-compilation behaviour of
``cnf_probability``), and the gap must widen with k.

Runable two ways:

* ``pytest benchmarks/bench_compile.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_compile.py [--quick]`` — a self-contained
  smoke run (used by CI with ``--quick``) that times both pipelines,
  prints the speedup, exits non-zero if compile-once loses at k = 4,
  and writes ``BENCH_compile.json``.

Script mode also gates the compiler itself against the token-level
compiler it replaced (``tests/frozen_compiler.py``, loaded by path): on
the Type-I reduction's lineages and on a cycle-8 reduction lineage with
1,144 variables, both must build node-identical circuits and the
integer-id compiler must stay ``FROZEN_SPEEDUP_GATES`` times faster.
"""

import importlib.util
import sys
import time
from fractions import Fraction
from pathlib import Path

import _bench_io

from repro.booleans.circuit import compile_cnf
from repro.core import catalog
from repro.counting.p2cnf import P2CNF
from repro.reduction.blocks import path_block, reduction_tid
from repro.reduction.type1 import Type1Reduction
from repro.tid.database import r_tuple
from repro.tid.lineage import lineage

F = Fraction
HALF = F(1, 2)


def block_workload(p=8, k=8):
    """A block-matrix-sized lineage plus k endpoint-weight vectors —
    the Eq. 20 grid pattern (interior weights, so neither engine can
    shortcut on 0/1 probabilities)."""
    query = catalog.rst_query()
    tid = path_block(query, p)
    formula = lineage(query, tid)
    base = dict.fromkeys(formula.variables(), HALF)
    r_u, r_v = r_tuple("u"), r_tuple("v")
    weight_maps = []
    for i in range(k):
        weights = dict(base)
        weights[r_u] = F(i + 1, k + 2)
        weights[r_v] = F(k + 1 - i, k + 2)
        weight_maps.append(weights)
    return formula, weight_maps


#: Two of the ``reduce_type1`` benchmark's P2CNF shapes (path query
#: length k, variables n, edges): a path and a star, m = 3 each.
REDUCTION_INSTANCES = ((1, 4, ((0, 1), (1, 2), (2, 3))),
                       (2, 4, ((0, 1), (0, 2), (0, 3))))

#: Minimum speedup of ``compile_cnf`` over the frozen compiler, per
#: lineage family; set below the slowest of ten measured --quick runs
#: (the runs are recorded in CHANGES.md).
FROZEN_SPEEDUP_GATES = {"reduction": 1.6, "cycle8": 2.0}


def reduction_lineages(max_parameter):
    """The Type-I reduction databases Delta(p1, p2), p1 <= p2 <=
    ``max_parameter``, of ``REDUCTION_INSTANCES`` — the lineages each
    oracle call of ``Type1Reduction.run(..., oracle="wmc")`` compiles."""
    lineages = []
    for k, n, edges in REDUCTION_INSTANCES:
        reduction = Type1Reduction(catalog.path_query(k))
        phi = P2CNF(n, edges)
        for p2 in range(1, max_parameter + 1):
            for p1 in range(1, p2 + 1):
                tid = reduction.reduction_database(phi, (p1, p2))
                lineages.append(lineage(reduction.query, tid))
    return lineages


def cycle8_lineage(p=12):
    """The scale guard: path_query(2) over the reduction database of an
    8-cycle with parallel blocks (p, p) — 1,144 variables at p = 12."""
    query = catalog.path_query(2)
    nodes = [f"x{i}" for i in range(8)]
    edges = [(nodes[i], nodes[(i + 1) % 8]) for i in range(8)]
    return lineage(query, reduction_tid(query, nodes, edges, [p, p]))


def load_test_module(name: str):
    """``tests/<name>.py``, loaded by path (``tests/`` is no package):
    the frozen compiler and the recursive Shannon oracle live there."""
    path = Path(__file__).resolve().parent.parent / "tests" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


shannon_probability = load_test_module("shannon_oracle").shannon_probability


def compile_all(compile_, formulas):
    return [compile_(formula) for formula in formulas]


def run_recursive(formula, weight_maps):
    """k independent recursive WMC runs (recompute every call)."""
    return [shannon_probability(formula, w) for w in weight_maps]


def run_compiled(formula, weight_maps):
    """One fresh compilation + k linear evaluations (no warm cache)."""
    circuit = compile_cnf(formula)
    return [circuit.probability(w) for w in weight_maps]


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_recursive_engine_recomputes(benchmark):
    formula, weight_maps = block_workload(p=8, k=8)
    values = benchmark(run_recursive, formula, weight_maps)
    assert all(0 < v < 1 for v in values)
    benchmark.extra_info["k"] = len(weight_maps)


def test_compile_once_evaluate_many(benchmark):
    formula, weight_maps = block_workload(p=8, k=8)
    values = benchmark(run_compiled, formula, weight_maps)
    assert values == run_recursive(formula, weight_maps)
    benchmark.extra_info["k"] = len(weight_maps)


def test_evaluation_is_linear(benchmark):
    """A single evaluation of an already-compiled circuit."""
    formula, weight_maps = block_workload(p=8, k=1)
    circuit = compile_cnf(formula)
    value = benchmark(circuit.probability, weight_maps[0])
    assert 0 < value < 1
    benchmark.extra_info["circuit_size"] = circuit.size


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


def frozen_gate(quick: bool) -> tuple[list, bool]:
    """Time ``compile_cnf`` against the frozen compiler on both
    lineage families; fails on a node-table mismatch or a speedup
    below ``FROZEN_SPEEDUP_GATES``."""
    frozen_compile_cnf = \
        load_test_module("frozen_compiler").frozen_compile_cnf
    families = {"reduction": reduction_lineages(5 if quick else 7),
                "cycle8": [cycle8_lineage()]}
    print(f"\n{'family':>10s} {'lineages':>8s} {'frozen':>11s} "
          f"{'int ids':>11s} {'speedup':>8s}")
    failed = False
    records = []
    for name, formulas in families.items():
        t_old, old = _best_of(compile_all, frozen_compile_cnf, formulas)
        t_new, new = _best_of(compile_all, compile_cnf, formulas)
        if any(a.nodes != b.nodes or a.root != b.root
               for a, b in zip(old, new)):
            print(f"NODE TABLE MISMATCH on {name}", file=sys.stderr)
            return records, True
        speedup = t_old / t_new
        verdict = ""
        if speedup < FROZEN_SPEEDUP_GATES[name]:
            verdict = f"  <-- below the {FROZEN_SPEEDUP_GATES[name]}x gate"
            failed = True
        print(f"{name:>10s} {len(formulas):8d} {t_old * 1e3:9.1f}ms "
              f"{t_new * 1e3:9.1f}ms {speedup:7.2f}x{verdict}")
        records.append({
            "family": name,
            "lineages": len(formulas),
            "nodes": sum(c.size for c in new),
            "frozen_ms": round(t_old * 1e3, 2),
            "compiled_ms": round(t_new * 1e3, 2),
            "speedup": round(speedup, 2),
            "gate": FROZEN_SPEEDUP_GATES[name],
        })
    return records, failed


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    print(f"{'k':>4s} {'recursive':>12s} {'compiled':>12s} "
          f"{'speedup':>8s}")
    failed = False
    records = []
    for k in (1, 4, 8) if quick else (1, 4, 8, 16):
        formula, weight_maps = block_workload(p=8, k=k)
        t_rec, rec = _best_of(run_recursive, formula, weight_maps)
        t_cmp, cmp_ = _best_of(run_compiled, formula, weight_maps)
        if rec != cmp_:
            print(f"VALUE MISMATCH at k={k}", file=sys.stderr)
            return 1
        verdict = ""
        if k >= 4 and t_cmp >= t_rec:
            verdict = "  <-- compile-once LOST"
            failed = True
        print(f"{k:4d} {t_rec * 1e3:10.2f}ms {t_cmp * 1e3:10.2f}ms "
              f"{t_rec / t_cmp:7.1f}x{verdict}")
        records.append({
            "k": k,
            "recursive_ms": round(t_rec * 1e3, 2),
            "compiled_ms": round(t_cmp * 1e3, 2),
            "speedup": round(t_rec / t_cmp, 2),
        })
    frozen_records, frozen_failed = frozen_gate(quick)
    _bench_io.emit("compile", {
        "quick": quick,
        "shapes": records,
        "frozen": frozen_records,
        **{f"speedup_vs_frozen_{r['family']}": r["speedup"]
           for r in frozen_records},
        "ok": not (failed or frozen_failed),
    })
    if failed:
        print("perf regression: compilation no longer pays for k >= 4",
              file=sys.stderr)
    if frozen_failed:
        print("perf regression: the compiler lost its speedup over the "
              "frozen token-level compiler (or its circuits changed)",
              file=sys.stderr)
    if failed or frozen_failed:
        return 1
    print("ok: compile-once + k evaluations beats k recursive runs "
          "for every k >= 4, and the compiler holds its gates over the "
          "frozen compiler with identical circuits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
