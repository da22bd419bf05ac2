"""Budgeted approximate WMC vs exact compilation on blow-up lineages.

The workload is a family of random bipartite monotone 2-CNFs — n left
and n right variables, each left variable in 4 clauses ``(x_i | y_j)``
with seeded-random partners.  This is exactly the #PP2CNF shape behind
the paper's hardness reductions, and the d-DNNF compiler's circuit for
it grows super-linearly in n (empirically ~exponentially: the clause
count grows 2x across the probe range below while the node count grows
>30x).  Shape expectations:

* circuit sizes across the probe range confirm super-linear growth;
* at the blow-up size, ``cnf_probability_auto`` under a node budget
  must answer via the estimator (``engine == "estimate"``), its
  Hoeffding interval must contain the exact value (computed once,
  unbudgeted, as ground truth), and the whole budgeted path —
  abort-at-budget plus sampling — must beat exact compilation.

Runable two ways:

* ``pytest benchmarks/bench_approx.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_approx.py [--quick]`` — a self-contained
  smoke run (CI uses ``--quick``) that exits non-zero if any of the
  expectations above fail, and writes ``BENCH_approx.json``.
"""

import random
import sys
import time

from fractions import Fraction

import _bench_io

from repro.booleans.approximate import estimate_probability
from repro.booleans.cnf import CNF
from repro.booleans.circuit import compile_cnf
from repro.tid import wmc

F = Fraction

#: Marginal giving the family a mid-range Pr(F): each clause fails
#: with probability 1/100, so Pr(F) sits around e^(-|clauses|/100).
WEIGHT = F(9, 10)
EPSILON = F(1, 20)
DELTA = F(1, 20)


def blowup_formula(n: int, degree: int = 4, seed: int = 7) -> CNF:
    """A random bipartite monotone 2-CNF over 2n variables (seeded, so
    every run and every hash seed sees the same formula)."""
    rng = random.Random(seed)
    clauses = set()
    for i in range(n):
        for j in rng.sample(range(n), degree):
            clauses.add((("x", i), ("y", j)))
    return CNF(sorted(clauses))


def weights(_var) -> Fraction:
    return WEIGHT


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_exact_compilation_blowup(benchmark):
    formula = blowup_formula(24)
    circuit = benchmark(compile_cnf, formula)
    assert 0 < circuit.probability(weights) < 1


def test_estimator_flat_cost(benchmark):
    formula = blowup_formula(24)
    estimate = benchmark(
        estimate_probability, formula, weights, EPSILON, DELTA, 0)
    exact = compile_cnf(formula).probability(weights)
    assert estimate.contains(exact)


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def check_growth(sizes: list[int]) -> tuple[bool, list[dict]]:
    """Compile the probe range; the circuit must grow super-linearly
    in the clause count across it."""
    records = []
    for n in sizes:
        formula = blowup_formula(n)
        start = time.perf_counter()
        circuit = compile_cnf(formula)
        elapsed = time.perf_counter() - start
        records.append({
            "n": n,
            "clauses": len(formula),
            "circuit_nodes": circuit.size,
            "compile_ms": round(elapsed * 1e3, 2),
        })
        print(f"n={n:3d} clauses={len(formula):4d} "
              f"circuit={circuit.size:7d} nodes  "
              f"compile {elapsed * 1e3:8.1f}ms")
    first, last = records[0], records[-1]
    clause_ratio = last["clauses"] / first["clauses"]
    node_ratio = last["circuit_nodes"] / first["circuit_nodes"]
    ok = node_ratio > 2 * clause_ratio
    if not ok:
        print(f"NOT SUPER-LINEAR: clauses grew {clause_ratio:.1f}x but "
              f"the circuit only {node_ratio:.1f}x", file=sys.stderr)
    return ok, records


def check_auto_beats_exact(n: int, budget_nodes: int
                           ) -> tuple[bool, dict]:
    """At the blow-up size: the auto path must degrade to the
    estimator, stay inside its stated error bound, and beat exact
    compilation end to end."""
    formula = blowup_formula(n)
    wmc.clear_circuit_cache()

    start = time.perf_counter()
    circuit = compile_cnf(formula)
    exact_value = circuit.probability(weights)
    t_exact = time.perf_counter() - start

    wmc.clear_circuit_cache()
    start = time.perf_counter()
    answer = wmc.cnf_probability_auto(
        formula, weights, policy=wmc.EvalPolicy(
            budget_nodes=budget_nodes, epsilon=EPSILON, delta=DELTA,
            rng=0))
    t_auto = time.perf_counter() - start

    record = {
        "n": n,
        "budget_nodes": budget_nodes,
        "circuit_nodes": circuit.size,
        "exact_ms": round(t_exact * 1e3, 2),
        "auto_ms": round(t_auto * 1e3, 2),
        "speedup": round(t_exact / t_auto, 2),
        "engine": answer.engine,
        "exact_value": float(exact_value),
        "estimate": float(answer.value),
        "samples": answer.estimate.samples if answer.estimate else 0,
        "interval_low": float(answer.estimate.low)
        if answer.estimate else None,
        "interval_high": float(answer.estimate.high)
        if answer.estimate else None,
    }
    print(f"n={n}: exact {t_exact * 1e3:.1f}ms "
          f"(circuit {circuit.size} nodes > budget {budget_nodes})  "
          f"auto {t_auto * 1e3:.1f}ms ({record['speedup']}x) "
          f"via {answer.engine}")
    if answer.engine != "estimate":
        print(f"AUTO DID NOT DEGRADE: circuit of {circuit.size} nodes "
              f"compiled under a budget of {budget_nodes}",
              file=sys.stderr)
        return False, record
    contains = answer.estimate.contains(exact_value)
    record["interval_contains_exact"] = contains
    print(f"      estimate {float(answer.value):.4f} in "
          f"[{float(answer.estimate.low):.4f}, "
          f"{float(answer.estimate.high):.4f}], "
          f"exact {float(exact_value):.4f} "
          f"({'inside' if contains else 'OUTSIDE'})")
    if not contains:
        print("ESTIMATE INTERVAL MISSED the exact value",
              file=sys.stderr)
        return False, record
    if t_auto >= t_exact:
        print("AUTO LOST to exact compilation", file=sys.stderr)
        return False, record
    return True, record


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    probe = [16, 24, 32] if quick else [16, 24, 32, 36]
    blowup_n = 32 if quick else 36
    ok_growth, growth = check_growth(probe)
    ok_auto, blowup = check_auto_beats_exact(blowup_n,
                                             budget_nodes=2000)
    ok = ok_growth and ok_auto
    _bench_io.emit("approx", {
        "quick": quick,
        "growth": growth,
        "blowup": blowup,
        "ok": ok,
    })
    if not ok:
        print("perf regression: the budgeted estimator no longer "
              "covers blow-up lineages", file=sys.stderr)
        return 1
    print("ok: circuits blow up super-linearly and the budgeted "
          "estimator answers within bounds, faster than exact "
          "compilation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
