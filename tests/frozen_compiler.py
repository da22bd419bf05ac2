"""The d-DNNF compiler as it stood before integer variable ids: a test
oracle, not library code.

``_Compiler``, ``branch_variable`` and ``_separation`` below are the
token-level compiler that ``repro.booleans.circuit`` shipped until it
moved to dense integer ids, copied verbatim.  The new compiler must
intern the same nodes in the same order, so ``frozen_compile_cnf(f)``
and ``compile_cnf(f)`` return node-identical circuits (equal
``to_bytes`` payloads) and abort at the same budgets.  Used by
``tests/test_compiler_oracle.py`` and timed against the live compiler
by ``benchmarks/bench_compile.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.booleans.circuit import (
    AND,
    FALSE,
    ITE,
    LEAF,
    TRUE,
    Circuit,
    CompilationBudgetExceeded,
)
from repro.booleans.cnf import CNF
from repro.booleans.connectivity import clause_components

#: ``branch_variable`` scores at most this many most-shared candidates
#: with the separator heuristic; the scan is linear in the formula per
#: candidate, so the cap bounds pivot selection at a small constant
#: multiple of the old most-shared rule.
_SEPARATOR_CANDIDATES = 6


def _separation(formula: CNF, var) -> int:
    """The number of connected components of the clause graph once
    ``var`` is deleted from every clause.

    Both Shannon cofactors on ``var`` erase it from the residual
    formula, so this lower-bounds how many independent factors
    ``clause_components`` finds in *each* branch: a separator variable
    (count > 1) lets the compiler recurse on strictly smaller pieces
    instead of one interleaved formula.
    """
    reduced = [clause - {var} for clause in formula.clauses]
    reduced = [clause for clause in reduced if clause]
    if len(reduced) <= 1:
        return len(reduced)
    incidence: dict[object, list[int]] = {}
    for i, clause in enumerate(reduced):
        for v in clause:
            incidence.setdefault(v, []).append(i)
    seen = [False] * len(reduced)
    components = 0
    for start in range(len(reduced)):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            for v in reduced[i]:
                for j in incidence[v]:
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
    return components


def branch_variable(formula: CNF):
    """The Shannon-expansion pivot: a cutset/separator variable when
    one exists, else a most-shared variable.

    The top ``_SEPARATOR_CANDIDATES`` most-shared variables are scored
    by how many clause components remain after deleting the variable
    (``_separation``); conditioning on a separator factors both
    cofactors into independent pieces, which hash-consing then shares —
    smaller circuits before they are ever evaluated or taped.  All ties
    break deterministically on the token's repr, preserving the
    byte-identical-across-hash-seeds serialization contract.
    """
    counts: dict[object, int] = {}
    for clause in formula.clauses:
        for var in clause:
            counts[var] = counts.get(var, 0) + 1
    if len(counts) <= 2 or len(formula.clauses) < 3:
        return max(counts, key=lambda v: (counts[v], repr(v)))
    candidates = sorted(counts, key=lambda v: (-counts[v], repr(v)))
    candidates = candidates[:_SEPARATOR_CANDIDATES]
    return max(candidates,
               key=lambda v: (_separation(formula, v), counts[v],
                              repr(v)))



class _Compiler:
    """Hash-consing compiler from minimized monotone CNFs to circuits."""

    def __init__(self, budget_nodes: int | None = None):
        if budget_nodes is not None and budget_nodes < 2:
            # The two constant nodes below always exist; a budget that
            # cannot even hold them is a caller error, not a blow-up.
            raise ValueError("budget_nodes must be at least 2")
        self.budget_nodes = budget_nodes
        self.nodes: list[tuple] = []
        self._intern_table: dict[tuple, int] = {}
        self.true_id = self._intern((TRUE,))
        self.false_id = self._intern((FALSE,))
        self._memo: dict[CNF, int] = {}

    def _intern(self, node: tuple) -> int:
        nid = self._intern_table.get(node)
        if nid is None:
            if self.budget_nodes is not None and \
                    len(self.nodes) >= self.budget_nodes:
                raise CompilationBudgetExceeded(self.budget_nodes)
            nid = len(self.nodes)
            self.nodes.append(node)
            self._intern_table[node] = nid
        return nid

    def leaf(self, var) -> int:
        return self._intern((LEAF, var))

    def conjoin(self, children: Iterable[int]) -> int:
        flat: set[int] = set()
        for child in children:
            if child == self.false_id:
                return self.false_id
            if child == self.true_id:
                continue
            node = self.nodes[child]
            if node[0] is AND:
                flat.update(node[1])
            else:
                flat.add(child)
        if not flat:
            return self.true_id
        if len(flat) == 1:
            # repro: allow[determinism] singleton set: order-free by construction
            return next(iter(flat))
        return self._intern((AND, tuple(sorted(flat))))

    def decide(self, var, hi: int, lo: int) -> int:
        if hi == lo:
            return hi
        return self._intern((ITE, var, hi, lo))

    # ------------------------------------------------------------------
    def compile(self, formula: CNF) -> int:
        if formula.is_true():
            return self.true_id
        if formula.is_false():
            return self.false_id
        hit = self._memo.get(formula)
        if hit is not None:
            return hit
        nid = self._compile_uncached(formula)
        self._memo[formula] = nid
        return nid

    def _compile_uncached(self, formula: CNF) -> int:
        # Unit clauses force their variable true: {X} & F == X & F[X:=1],
        # a decomposable product because conditioning removes X.  The
        # min-by-repr choice keeps compilation order-independent.
        units = [clause for clause in formula.clauses if len(clause) == 1]
        if units:
            var = min((next(iter(c)) for c in units), key=repr)
            return self.conjoin([
                self.leaf(var),
                self.compile(formula.condition(var, True))])

        groups = clause_components(formula)
        if len(groups) > 1:
            # Component order follows frozenset iteration, which varies
            # with PYTHONHASHSEED; sorting by each component's minimal
            # variable repr (components are variable-disjoint, so keys
            # are distinct) pins the traversal — and with it the node
            # numbering, making ``Circuit.to_bytes`` byte-identical
            # across runs and hash seeds.
            groups.sort(key=lambda g: min(repr(v) for c in g for v in c))
            return self.conjoin(
                self.compile(CNF._from_minimized(group))
                for group in groups)

        var = branch_variable(formula)
        hi = self.compile(formula.condition(var, True))
        lo = self.compile(formula.condition(var, False))
        return self.decide(var, hi, lo)


def frozen_compile_cnf(formula: CNF,
                       budget_nodes: int | None = None) -> Circuit:
    """``compile_cnf`` as it was, on the frozen compiler above."""
    compiler = _Compiler(budget_nodes)
    root = compiler.compile(formula)
    return Circuit(tuple(compiler.nodes), root)
