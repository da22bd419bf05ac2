"""The recursive WMC engine that preceded knowledge compilation: a
test oracle, not library code.

``shannon_probability``, ``_probability`` and ``_probability_uncached``
below are the recursive Shannon-expansion search that
``repro.tid.wmc`` shipped before every Pr(F) went through a compiled
circuit, copied verbatim.  It restarts its search on every call, shares
no code with the compiler beyond ``branch_variable``, and so serves as
an independent exact oracle for ``tests/test_circuit.py`` and
``tests/test_determinism.py``, and as the recompute-every-call
baseline timed by ``benchmarks/bench_compile.py``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.booleans.circuit import branch_variable, make_lookup
from repro.booleans.cnf import CNF
from repro.booleans.connectivity import clause_components

ONE = Fraction(1)


def shannon_probability(formula: CNF, prob: Mapping | None = None,
                        default: Fraction | None = None) -> Fraction:
    """Pr(F) by the pre-compilation recursive engine.

    Recomputes from scratch on every call (the memo cache is per-call),
    exactly as ``cnf_probability`` behaved before the circuit backend;
    kept as an independent implementation for cross-checks and as the
    recompute-every-call baseline in ``benchmarks/bench_compile.py``.
    """
    lookup = make_lookup(prob, default)
    cache: dict[CNF, Fraction] = {}
    return _probability(formula, lookup, cache)


def _probability(formula: CNF, prob, cache) -> Fraction:
    if formula.is_true():
        return ONE
    if formula.is_false():
        return Fraction(0)
    hit = cache.get(formula)
    if hit is not None:
        return hit

    result = _probability_uncached(formula, prob, cache)
    cache[formula] = result
    return result


def _probability_uncached(formula: CNF, prob, cache) -> Fraction:
    # Unit clauses force their variable true.  Like the compiler
    # (circuit.py), pick the min-by-repr unit rather than the first in
    # frozenset iteration order, which varies with PYTHONHASHSEED —
    # the result is the same either way, but the recursion trace (and
    # hence timing and cache shape) stays run-to-run deterministic.
    units = [clause for clause in formula.clauses if len(clause) == 1]
    if units:
        var = min((next(iter(c)) for c in units), key=repr)
        p = Fraction(prob(var))
        if p == 0:
            return Fraction(0)
        return p * _probability(formula.condition(var, True),
                                prob, cache)

    groups = clause_components(formula)
    if len(groups) > 1:
        result = ONE
        for group in groups:
            result *= _probability(CNF._from_minimized(group), prob, cache)
            if result == 0:
                return result
        return result

    var = branch_variable(formula)
    p = Fraction(prob(var))
    high = _probability(formula.condition(var, True), prob, cache)
    if p == ONE:
        return high
    low = _probability(formula.condition(var, False), prob, cache)
    return p * high + (ONE - p) * low
