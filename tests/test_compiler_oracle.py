"""The integer-id compiler against the frozen token-level compiler.

``compile_cnf`` searches on dense integer variable ids assigned in
``repr`` order; the compiler it replaced (kept verbatim in
``tests/frozen_compiler.py``) searched on the tokens and broke every tie
on ``repr``.  The two must intern the same nodes in the same order, so
their node tables — and with them the ``to_bytes`` payloads — are
identical, and a node budget aborts both at the same point.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frozen_compiler import branch_variable as frozen_branch_variable
from frozen_compiler import frozen_compile_cnf
from repro.booleans.circuit import (
    CompilationBudgetExceeded,
    branch_variable,
    compile_cnf,
)
from repro.booleans.cnf import CNF
from repro.core import catalog
from repro.core.generate import GeneratorConfig, random_query
from repro.reduction.blocks import path_block, reduction_tid
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
from repro.tid.lineage import lineage

HALF = Fraction(1, 2)
SMALL = GeneratorConfig(n_symbols=3, max_clauses=3, max_subclauses=2)
BLOCK_QUERIES = (catalog.rst_query(), catalog.path_query(2),
                 catalog.unsafe_type1_type2())


def assert_same_compilation(formula: CNF) -> None:
    frozen = frozen_compile_cnf(formula)
    circuit = compile_cnf(formula)
    assert circuit.nodes == frozen.nodes
    assert circuit.root == frozen.root
    assert circuit.to_bytes() == frozen.to_bytes()
    # The budget abort point: one node short fails both, the exact
    # size passes both (2 is the smallest legal budget).
    if frozen.size - 1 >= 2:
        for compile_ in (frozen_compile_cnf, compile_cnf):
            with pytest.raises(CompilationBudgetExceeded):
                compile_(formula, budget_nodes=frozen.size - 1)
    assert compile_cnf(formula, budget_nodes=frozen.size).to_bytes() == \
        frozen_compile_cnf(formula, budget_nodes=frozen.size).to_bytes()


def random_tid(query, seed: int) -> TID:
    rng = random.Random(seed)
    left = [f"u{i}" for i in range(rng.randint(1, 3))]
    right = [f"v{j}" for j in range(rng.randint(1, 3))]
    probs = {}
    for u in left:
        probs[r_tuple(u)] = rng.choice((HALF, Fraction(1)))
    for v in right:
        probs[t_tuple(v)] = rng.choice((HALF, Fraction(1)))
    for s in sorted(query.binary_symbols):
        for u in left:
            for v in right:
                probs[s_tuple(s, u, v)] = HALF
    return TID(left, right, probs)


def mixed_token_cnf(seed: int) -> CNF:
    """Tokens whose ``repr`` order differs from their natural order
    (``10`` sorts before ``9``; tuples, strings and ints interleave), so
    any tie broken on the wrong key shows as a different circuit."""
    rng = random.Random(seed)
    pool = ([i for i in range(12)] + [f"x{i}" for i in range(12)] +
            [("S", f"a{i}", i) for i in range(6)])
    variables = rng.sample(pool, rng.randint(1, 14))
    clauses = []
    for _ in range(rng.randint(0, 12)):
        size = rng.randint(1, min(4, len(variables)))
        clauses.append(rng.sample(variables, size))
    return CNF(clauses)


class TestNodeIdentity:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_query_lineages(self, query_seed, tid_seed):
        query = random_query(query_seed, SMALL)
        assert_same_compilation(lineage(query, random_tid(query, tid_seed)))

    @given(st.sampled_from(BLOCK_QUERIES), st.integers(1, 8))
    @settings(max_examples=24, deadline=None)
    def test_path_blocks(self, query, p):
        assert_same_compilation(lineage(query, path_block(query, p)))

    @given(st.integers(0, 10_000), st.integers(1, 2),
           st.lists(st.integers(1, 3), min_size=1, max_size=2))
    @settings(max_examples=20, deadline=None)
    def test_small_reduction_lineages(self, seed, k, params):
        rng = random.Random(seed)
        nodes = [f"x{i}" for i in range(rng.randint(2, 4))]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        query = catalog.path_query(k)
        assert_same_compilation(
            lineage(query, reduction_tid(query, nodes, edges, params)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_mixed_tokens(self, seed):
        assert_same_compilation(mixed_token_cnf(seed))

    def test_constants(self):
        for formula in (CNF.TRUE, CNF.FALSE):
            frozen = frozen_compile_cnf(formula)
            assert compile_cnf(formula).to_bytes() == frozen.to_bytes()


class TestPivot:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_branch_variable_matches_frozen(self, seed):
        formula = mixed_token_cnf(seed)
        if formula.is_true() or formula.is_false():
            return
        assert branch_variable(formula) == \
            frozen_branch_variable(formula)
