"""The Type-II link matrix z and its eigenvalues (Section C.8).

Conditioning the zig-zag lineage on an *articulation symbol*'s odd-class
tuples S_0 = S(r_0, t_0), S_1 = S(r_1, t_1), ... splits it into
independent factors (Eq. 75):

    Y[S_0 := v_0, ..., S_p := v_p]
        = U^(v0) & Z_1^(v0 v1) & ... & Z_p^(v_{p-1} v_p) & V^(vp),

and the 2x2 matrix z with z_ab = Pr(Z_i^(ab)) drives the exponential
form y(p) ~ a lambda1^p + b lambda2^p.  This module extracts z for the
single-step block, and verifies:

* Lemma C.28: the articulation tuples disconnect the prefix from the
  suffix part of the block;
* Lemma C.32: all four z entries are positive;
* Theorem C.33: 0 < |lambda1| < lambda2 (checked exactly in
  Q(sqrt(disc))).

The link-matrix extractions are exact by default; a budgeted
``repro.tid.wmc.EvalPolicy`` (optionally with a ``BudgetPlanner``)
lets each conditioned factor degrade to an estimate on its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from repro.algebra.eigen2x2 import spectral_decomposition_2x2
from repro.algebra.matrices import Matrix
from repro.algebra.quadratic import QuadraticNumber
from repro.booleans.circuit import WeightOverlay
from repro.booleans.cnf import CNF
from repro.booleans.connectivity import clause_components, variable_disconnects
from repro.core.queries import Query
from repro.core.safety import is_safe
from repro.reduction.type2_blocks import type2_block
from repro.reduction.type2_lattice import TypeIIStructure
from repro.tid.database import s_tuple
from repro.tid.lineage import lineage
from repro.tid.wmc import (
    EXACT,
    EvalPolicy,
    cnf_probability_auto,
    probability_batch_auto,
)

HALF = Fraction(1, 2)


def articulation_symbols(query: Query) -> list[str]:
    """Binary symbols S whose 0/1-rewritings both make Q safe — the
    candidates used in Section C.8 (final queries: all of them)."""
    out = []
    for symbol in sorted(query.binary_symbols):
        if is_safe(query.set_symbol(symbol, False)) and \
                is_safe(query.set_symbol(symbol, True)):
            out.append(symbol)
    return out


def _middle_factor(conditioned: CNF, middle_tuples: frozenset) -> CNF:
    """The conjunction of components touching the given tuples."""
    groups = [g for g in clause_components(conditioned)
              if frozenset(v for c in g for v in c) & middle_tuples]
    # Components of a minimized CNF are subsets of its clause set, so
    # their union is already absorption-minimal.
    return CNF._from_minimized(c for g in groups for c in g)


def link_matrix_type2(query: Query, symbol: str,
                      assignment: Mapping[tuple, Fraction] | None = None,
                      tag: str = "", *,
                      policy: EvalPolicy = EXACT) -> Matrix:
    """The 2x2 matrix z for one zig-zag step (p = 1).

    Conditioning S_0 = S(r0, t0) and S_1 = S(r1, t1) on (a, b) isolates
    the middle factor Z^(ab) around the elementary block B(r1, t0);
    z_ab is its probability with all remaining tuples at 1/2 (or at the
    supplied consistent assignment).  Each factor is evaluated through
    the shared compilation cache, so repeated link-matrix extractions
    over the same block (the spectral checks, the exponential-form
    verification, the assignment sweeps) compile each factor only once.

    A budgeted ``policy`` (``repro.tid.wmc.EvalPolicy``) evaluates
    each factor under its compilation budget, degrading to an
    (epsilon, delta) estimate from its estimator past it.  The
    policy's ``planner`` (``repro.booleans.adaptive.BudgetPlanner``)
    picks each factor's budget from the observed circuit-size
    trajectory — this is where budget-aware planning pays: the four
    conditioned middle factors of a link matrix differ in size, and a
    trajectory-planned budget aborts a hopeless factor early without
    strangling its siblings.  The default ``EXACT`` policy never
    degrades.
    """
    block = type2_block(query, p=1, tag=tag)
    if assignment:
        for token, value in assignment.items():
            block = block.with_probability(token, value)
    formula = lineage(query, block)
    s0 = s_tuple(symbol, f"r0{tag}", f"t0{tag}")
    s1 = s_tuple(symbol, f"r1{tag}", f"t1{tag}")
    middle = frozenset(
        s_tuple(s, f"r1{tag}", f"t0{tag}")
        for s in sorted(query.binary_symbols)) - {s0, s1}
    rows = []
    for a in (False, True):
        row = []
        for b in (False, True):
            conditioned = formula.condition(s0, a).condition(s1, b)
            factor = _middle_factor(conditioned, middle)
            row.append(cnf_probability_auto(
                factor, block.probability, policy=policy).value)
        rows.append(row)
    return Matrix(rows)


def link_matrix_sweep(query: Query, symbol: str,
                      assignments, tag: str = "", *,
                      numeric: str = "exact",
                      policy: EvalPolicy = EXACT) -> list[Matrix]:
    """The link matrices z(theta) for a sweep of theta-assignments.

    For assignments with *interior* values (0 < p < 1) the block
    lineage — and hence all four conditioned middle factors — is
    independent of theta, so the whole sweep is four batched circuit
    passes (one per factor, ``Circuit.probability_batch``) instead of
    4k grounding-plus-search runs.  Assignments that pin tuples to 0
    or 1 change the grounded lineage structurally (and with it which
    components count as the middle factor), so those fall back to
    per-assignment ``link_matrix_type2``; the returned matrices are
    bit-identical to per-assignment extraction either way.

    A budgeted ``policy`` (``repro.tid.wmc.EvalPolicy``) runs each
    factor under its compilation budget and degrades its sweep lanes
    to (epsilon, delta) estimates from its estimator past it, as in
    ``link_matrix_type2``.  The default ``EXACT`` policy never
    degrades.

    ``numeric="float"`` runs the interior-theta batched passes in
    hardware floats on the flat instruction tape — useful for
    screening wide theta-grids; it requires interior assignments (the
    structural fallback path is exact-only) and returns float-entry
    matrices, so keep the exact default wherever the spectral algebra
    consumes the result.
    """
    if numeric not in ("exact", "float"):
        raise ValueError(
            f"numeric must be 'exact' or 'float', got {numeric!r}")
    assignments = [dict(theta) for theta in assignments]
    interior = all(
        0 < Fraction(value) < 1
        for theta in assignments for value in theta.values())
    if not interior and numeric == "float":
        raise ValueError(
            "numeric='float' requires interior theta-assignments "
            "(0 < value < 1); boundary assignments take the "
            "structural per-assignment path, which is exact-only")
    if not interior:
        return [link_matrix_type2(query, symbol, theta, tag,
                                  policy=policy)
                for theta in assignments]

    block = type2_block(query, p=1, tag=tag)
    formula = lineage(query, block)
    s0 = s_tuple(symbol, f"r0{tag}", f"t0{tag}")
    s1 = s_tuple(symbol, f"r1{tag}", f"t1{tag}")
    middle = frozenset(
        s_tuple(s, f"r1{tag}", f"t0{tag}")
        for s in sorted(query.binary_symbols)) - {s0, s1}
    base = block.probability
    # WeightOverlay (not a closure) so the tape float kernel can fill
    # its weight matrix from the shared base plus the pinned tuples.
    specs = [
        WeightOverlay(base, {token: Fraction(v)
                             for token, v in theta.items()})
        for theta in assignments]
    entries: dict[tuple[int, int], list[Fraction]] = {}
    for a in (False, True):
        for b in (False, True):
            conditioned = formula.condition(s0, a).condition(s1, b)
            factor = _middle_factor(conditioned, middle)
            entries[int(a), int(b)] = probability_batch_auto(
                factor, specs, numeric=numeric, policy=policy).values
    return [
        Matrix([[entries[0, 0][i], entries[0, 1][i]],
                [entries[1, 0][i], entries[1, 1][i]]])
        for i in range(len(assignments))]


def articulation_disconnects(query: Query, symbol: str,
                             tag: str = "") -> bool:
    """Lemma C.28 (p = 1 form): the odd-class articulation tuple
    S(r1, t1) disconnects the B(r0, t0)-side from the suffix side in
    the block lineage."""
    block = type2_block(query, p=1, tag=tag)
    formula = lineage(query, block)
    left = frozenset(
        s_tuple(s, f"r0{tag}", f"t0{tag}")
        for s in sorted(query.binary_symbols))
    right = frozenset(
        s_tuple(s, f"rsuff0{tag}", "v")
        for s in sorted(query.binary_symbols))
    token = s_tuple(symbol, f"r1{tag}", f"t1{tag}")
    live_left = left & formula.variables()
    live_right = right & formula.variables()
    if not live_left or not live_right:
        return False
    return variable_disconnects(formula, token, live_left, live_right)


def y_sequence(query: Query, alpha, beta, p_max: int,
               tag: str = "") -> list[Fraction]:
    """y_alpha_beta(p) on the pure zig-zag block (no prefix/suffix)
    for p = 0..p_max (Eq. 73), all probabilities 1/2."""
    structure = TypeIIStructure(query)
    values = []
    for p in range(p_max + 1):
        block = type2_block(query, p=p, branches=0, tag=tag)
        values.append(structure.y_probability(
            block, f"r0{tag}", f"t{p}{tag}", alpha, beta))
    return values


def verify_exponential_form(query: Query, symbol: str, alpha, beta,
                            p_max: int = 4, tag: str = "") -> bool:
    """Eq. (79): y(p) = (a (lambda1/2)^p + b (lambda2/2)^p) implies the
    exact linear recurrence

        y(p+2) = (tr(z)/2) y(p+1) - (det(z)/4) y(p),

    with z the articulation link matrix.  Verifying the recurrence on
    measured y-values confirms the exponential form without leaving
    rational arithmetic."""
    z = link_matrix_type2(query, symbol, tag=tag)
    trace = z[0, 0] + z[1, 1]
    det = z.determinant()
    ys = y_sequence(query, alpha, beta, p_max, tag=tag)
    return all(
        ys[p + 2] == (trace / 2) * ys[p + 1] - (det / 4) * ys[p]
        for p in range(p_max - 1))


def theorem_c33_conditions(z: Matrix) -> dict[str, bool]:
    """Lemma C.32 and Theorem C.33 on a computed link matrix."""
    entries_positive = all(
        z[i, j] > 0 for i in range(2) for j in range(2))
    result = {"c32_entries_positive": entries_positive,
              "c33_eigenvalues": False}
    try:
        dec = spectral_decomposition_2x2(z)
    except ValueError:
        return result
    zero = QuadraticNumber(0)
    l1, l2 = dec.lambda1, dec.lambda2
    # Order |lambda1| < lambda2 with lambda2 the dominant (positive).
    if l2 < l1:
        l1, l2 = l2, l1
    magnitude_l1 = l1 if l1 >= zero else -l1
    result["c33_eigenvalues"] = (magnitude_l1 > zero
                                 and l2 > zero
                                 and magnitude_l1 < l2)
    return result
