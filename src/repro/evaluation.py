"""A dichotomy-aware query evaluator.

``evaluate`` routes a (query, database) pair to the right engine:

* safe queries (Definition 2.4) go to the polynomial-time lifted
  evaluator — the PTIME side of Theorem 2.1;
* unsafe queries fall back to the weighted model counter, which
  compiles the lineage to a d-DNNF circuit and evaluates it (they are
  #P-hard, Theorem 2.2, so no general shortcut exists — but the
  compilation is paid at most once per lineage).  Under the default
  ``"auto"`` method the compilation runs under the ``EvalPolicy``'s
  node budget and degrades to the policy's Monte-Carlo estimator when
  the circuit blows up — the result's ``method`` then names the
  sampler and its ``estimate`` field carries the bound;
* ``method`` can force a specific engine — ``"compiled"`` addresses the
  circuit backend explicitly, ``"wmc"`` the shared compile+evaluate
  oracle, ``"brute"`` world enumeration, ``"estimate"`` (or
  ``"adaptive"``/``"importance"``) a Monte-Carlo estimator — or
  request ``"cross-check"``, which checks wmc against brute force (and
  against the lifted evaluator when the query is safe).

Batch workloads should use ``evaluate_batch`` (many databases, one
query) or ``probability_sweep`` (one lineage, many weight vectors):
both ride the module-level compilation cache, so the exponential
lineage search runs once and each extra evaluation is linear in the
circuit size.

This is the front door a downstream user of the library is expected to
call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.booleans.adaptive import ENGINE_LABELS, estimate_with
from repro.booleans.approximate import ProbabilityEstimate
from repro.booleans.cnf import CNF
from repro.core.queries import Query
from repro.core.safety import is_safe
from repro.tid.brute import probability_brute
from repro.tid.database import TID
from repro.tid.lifted import lifted_probability
from repro.tid.lineage import lineage
from repro.tid.wmc import (
    AUTO,
    EXACT,
    EvalPolicy,
    cnf_probability,
    cnf_probability_auto,
    probability_batch_auto,
)

METHODS = ("auto", "lifted", "wmc", "compiled", "brute", "estimate",
           "adaptive", "importance", "cross-check")

#: Methods answered by a sampler rather than an exact engine; the
#: result's ``method`` records the sampler that actually ran
#: ("estimate" = fixed-n Hoeffding, "adaptive" = sequential
#: empirical-Bernstein, "importance" = self-normalized tilted).
ESTIMATE_METHODS = ("estimate", "adaptive", "importance")


@dataclass(frozen=True)
class EvaluationResult:
    """Pr(Q) together with provenance of how it was computed.

    ``estimate`` is populated only when the Monte-Carlo engine
    answered (``method == "estimate"``): ``value`` is then the point
    estimate and ``estimate`` carries its Hoeffding interval.
    """

    value: Fraction
    method: str
    safe: bool
    estimate: ProbabilityEstimate | None = None

    def __eq__(self, other):
        if isinstance(other, EvaluationResult):
            return (self.value, self.method, self.safe) == \
                (other.value, other.method, other.safe)
        # Delegate so numeric comparisons (Fraction, int, float) still
        # work but genuinely foreign types get NotImplemented back,
        # letting Python try the reflected __eq__ instead of forcing
        # an unconditional False.
        return self.value.__eq__(other)

    def __hash__(self):
        # A custom __eq__ suppresses the dataclass-generated __hash__,
        # so it must be restated explicitly.  Hash on the value alone:
        # results equal to each other or to a bare Fraction (see __eq__)
        # then always hash alike, keeping dict/set semantics consistent.
        return hash(self.value)

    @property
    def engine(self) -> str:
        """Which engine class answered, mirroring ``AutoProbability``:
        the sampler's label (``"estimate"``, ``"adaptive"``,
        ``"importance"``) for the Monte-Carlo paths, ``"exact"`` for
        every other method (they all compute the true rational)."""
        return self.method if self.method in ESTIMATE_METHODS \
            else "exact"

    def as_dict(self) -> dict:
        """A JSON-safe rendering (exact value as a ``"num/den"``
        string, float convenience field, engine/method provenance, and
        the Hoeffding interval when the estimator answered) — what the
        service protocol puts on the wire."""
        payload = {
            "value": str(self.value),
            "float": float(self.value),
            "method": self.method,
            "engine": self.engine,
            "safe": self.safe,
        }
        if self.estimate is not None:
            payload["estimate"] = self.estimate.as_dict()
        return payload


def evaluate(query: Query, tid: TID, method: str = "auto", *,
             policy: EvalPolicy = AUTO,
             formula: CNF | None = None) -> EvaluationResult:
    """Pr(Q) over the TID, routed per the dichotomy.

    ``policy`` (a ``repro.tid.wmc.EvalPolicy``) governs the ``"auto"``
    and sampled methods: ``auto`` answers exactly (method ``"lifted"``
    or ``"wmc"``) whenever it can, and falls back to the policy's
    estimator — recording the sampler's label and its confidence
    interval on the result — only when exact compilation of an unsafe
    query's lineage exceeds the policy's node budget.  Methods
    ``"adaptive"``/``"importance"`` force the named sampler directly,
    as ``"estimate"`` forces the policy's ``estimator`` (default
    fixed-n Hoeffding), all at the policy's (epsilon, delta).
    ``formula`` is the query's lineage over ``tid`` when the caller
    has already grounded it (the service's workload resolver has), so
    no engine grounds it again; it must equal ``lineage(query, tid)``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick from {METHODS}")
    safe = is_safe(query)

    def grounded() -> CNF:
        return lineage(query, tid) if formula is None else formula

    def exact() -> Fraction:
        if query.is_false():
            return Fraction(0)
        return cnf_probability(grounded(), tid.probability)

    if method == "auto":
        if safe:
            return EvaluationResult(lifted_probability(query, tid),
                                    "lifted", True)
        if query.is_false():
            return EvaluationResult(Fraction(0), "wmc", False)
        answer = cnf_probability_auto(grounded(), tid.probability,
                                      policy=policy)
        if answer.engine != "exact":
            return EvaluationResult(answer.value, answer.engine, False,
                                    answer.estimate)
        return EvaluationResult(answer.value, "wmc", False)
    if method in ESTIMATE_METHODS:
        sampler = policy.estimator if method == "estimate" else method
        label = ENGINE_LABELS[sampler]
        if query.is_false():
            # No sampling needed: Pr is exactly 0, reported as a
            # degenerate zero-width interval so the documented
            # invariant (a sampled method implies a populated
            # estimate) holds.
            zero = Fraction(0)
            return EvaluationResult(
                zero, label, safe,
                ProbabilityEstimate(zero, zero, zero, 0, 0,
                                    samples_used=0))
        estimate = estimate_with(
            sampler, grounded(), tid.probability, policy.epsilon,
            policy.delta, policy.rng,
            relative_error=policy.relative_error)
        return EvaluationResult(estimate.estimate, label, safe,
                                estimate)
    if method == "lifted":
        return EvaluationResult(lifted_probability(query, tid),
                                "lifted", safe)
    if method in ("wmc", "compiled"):
        # "compiled" is the same circuit-backed engine as "wmc",
        # addressed explicitly; provenance records the caller's choice.
        return EvaluationResult(exact(), method, safe)
    if method == "brute":
        return EvaluationResult(probability_brute(query, tid),
                                "brute", safe)
    # cross-check
    value = exact()
    brute_value = probability_brute(query, tid)
    if value != brute_value:  # pragma: no cover - engine bug guard
        raise AssertionError(
            f"engine disagreement: wmc={value} brute={brute_value}")
    if safe:
        lifted_value = lifted_probability(query, tid)
        if lifted_value != value:  # pragma: no cover
            raise AssertionError(
                f"lifted={lifted_value} disagrees with wmc={value}")
    return EvaluationResult(value, "cross-check", safe)


def evaluate_batch(query: Query, tids: Iterable[TID],
                   method: str = "auto", *,
                   policy: EvalPolicy = AUTO) -> list[EvaluationResult]:
    """Pr(Q) over many databases, compiling each distinct lineage once.

    Databases that ground to the same lineage CNF (same domains and
    certain/absent tuples, arbitrary probabilities elsewhere) share a
    single compilation through the module-level circuit cache, so the
    marginal cost of each extra database is one linear circuit pass.
    The ``policy`` applies per database; a lineage past budget
    degrades that database's result to an estimate without affecting
    the others.
    """
    return [evaluate(query, tid, method, policy=policy) for tid in tids]


def endpoint_weight_grid(formula: CNF, tid: TID, k: int,
                         u="u", v="v") -> list[dict]:
    """k weight vectors varying the R(u)/T(v) endpoint marginals over
    a fixed block lineage — the Eq. 20 / interpolation grid shape
    shared by the ``repro sweep`` CLI, ``benchmarks/bench_sweep.py``,
    and the sweep tests.

    Vector i pins R(u) to (i+1)/(k+2) and T(v) to (k+1-i)/(k+2); all
    other tuple marginals stay at the TID's values.
    """
    from repro.tid.database import r_tuple, t_tuple

    base = {var: tid.probability(var) for var in formula.variables()}
    r_u, t_v = r_tuple(u), t_tuple(v)
    grid = []
    for i in range(k):
        weights = dict(base)
        weights[r_u] = Fraction(i + 1, k + 2)
        weights[t_v] = Fraction(k + 1 - i, k + 2)
        grid.append(weights)
    return grid


def probability_sweep(formula: CNF,
                      weight_maps: Sequence[Mapping | None],
                      default: Fraction | None = None,
                      numeric: str = "exact",
                      cross_check: int = 2, *,
                      policy: EvalPolicy = EXACT) -> list:
    """Pr(F) under many weight vectors: compile once, sweep batched.

    This is the primitive behind the reduction pipelines' probability
    grids (block-matrix entries, Type-II theta-sweeps, interpolation
    points): one exponential compilation (riding the two-tier circuit
    cache), then a single batched pass of the flat instruction tape
    over all weight maps.  Each entry of ``weight_maps`` may be a
    mapping, a callable, or None (all variables at ``default``, by
    default 1/2).

    ``numeric="float"`` switches the pass to hardware floats; up to
    ``cross_check`` evenly-spaced vectors are then re-evaluated
    exactly (``check_float_sweep``).

    A budgeted ``policy`` switches the sweep to the ``auto`` policy:
    if exact compilation exceeds the budget, each weight vector is
    answered by an (epsilon, delta) estimate from the policy's
    estimator instead.  The return stays a plain value list either
    way; callers that need the engine/interval provenance should use
    ``repro.tid.wmc.probability_batch_auto`` directly.
    """
    weight_maps = list(weight_maps)
    sweep = probability_batch_auto(formula, weight_maps, default,
                                   numeric=numeric, policy=policy)
    if sweep.engine == "exact" and numeric == "float":
        check_float_sweep(formula, weight_maps, sweep.values, default,
                          cross_check)
    return sweep.values


def check_float_sweep(formula: CNF, weight_maps: Sequence,
                      values: Sequence[float],
                      default: Fraction | None = None,
                      count: int = 2) -> None:
    """Re-evaluate up to ``count`` evenly-spaced vectors of a float
    sweep exactly and raise ``ArithmeticError`` if a float value
    drifted beyond 1e-9 relative tolerance."""
    if not count or not weight_maps:
        return
    step = max(1, len(weight_maps) // count)
    for i in list(range(0, len(weight_maps), step))[:count]:
        exact = float(cnf_probability(formula, weight_maps[i], default))
        if abs(values[i] - exact) > 1e-9 * max(1.0, abs(exact)):
            raise ArithmeticError(
                f"float sweep drifted at vector {i}: "
                f"float={values[i]!r} exact={exact!r}")
