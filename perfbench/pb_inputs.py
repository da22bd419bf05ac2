"""Seeded inputs for the three workloads.

The program only ever sees what these functions generate.  Each seed
draws fresh symbol names, edge labellings and request orders, but
from fixed structural families, so two seeds cost about the same and
a metric's spread across seeds measures the program, not the draw.
"""

from __future__ import annotations

import random
import re

# ----------------------------------------------------------------------
# reduce_type1
# ----------------------------------------------------------------------
#: (path query length k, variables n, edges of a canonical graph).  Each
#: seed relabels the variables, orients every edge at random and
#: shuffles the clause order: a random P2CNF from the graph's
#: isomorphism class.  Fixing the classes keeps the compile cost of a
#: pass within a few percent across seeds; fully random graphs with
#: the same (n, m) vary by about 20%.
REDUCTION_SHAPES = (
    (1, 4, ((0, 1), (1, 2), (2, 3))),                  # path, m = 3
    (1, 5, ((0, 1), (1, 2), (2, 3), (3, 0))),          # 4-cycle + isolated
    (1, 6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5))),  # tree, m = 5
    (2, 4, ((0, 1), (0, 2), (0, 3))),                  # star, m = 3
    (2, 5, ((0, 1), (1, 2), (2, 0), (2, 3))),          # triangle + tail
)


def reduction_instances(seed: int) -> list[tuple[int, int, tuple]]:
    """``[(k, n, edges), ...]``: the fixed input set of one pass."""
    rng = random.Random(f"reduce_type1/{seed}")
    out = []
    for k, n, edges in REDUCTION_SHAPES:
        perm = list(range(n))
        rng.shuffle(perm)
        labelled = []
        for i, j in edges:
            a, b = perm[i], perm[j]
            if rng.random() < 0.5:
                a, b = b, a
            labelled.append((a, b))
        rng.shuffle(labelled)
        out.append((k, n, tuple(labelled)))
    return out


# ----------------------------------------------------------------------
# Query families for the service workloads
# ----------------------------------------------------------------------
#: Unsafe queries whose lineage holds an endpoint tuple (sweepable);
#: A-D are placeholders for binary symbols.
UNSAFE_EXACT = ("(R|A)(A|T)", "(R|A)(A|B)(B|T)", "(R|A)(A|B)(R:B;C)",
                "(R|A)(A|B|C)(C|T)(B|T)")
UNSAFE_CHURN = ("(R|A)(A|T)", "(R|A)(A|B)(B|T)", "(R|A)(A|B)(R:B;C)",
                "(R|A|T)")
#: Safe queries: answered by lifted inference, never compiled.
SAFE_CHURN = ("(R|A|B)(B|C)", "(R|A)(A|B)(C|D)(D|T)", "(A|B)(B|T)",
              "(R|A)(B|T)", "(R|A)(A|B)")

_PLACEHOLDER = re.compile(r"\b[ABCD]\b")


def instantiate(template: str, tag: str) -> str:
    """``template`` with each placeholder symbol X renamed to X<tag>:
    an isomorphic query over symbols no other instance uses, so its
    lineage is a formula no cache has seen."""
    return _PLACEHOLDER.sub(lambda m: m.group(0) + tag, template)


def _tags(rng: random.Random, count: int, used: set) -> list[str]:
    out = []
    while len(out) < count:
        tag = str(rng.randrange(10_000, 100_000))
        if tag not in used:
            used.add(tag)
            out.append(tag)
    return out


def _rounds(rng: random.Random, classes: list[list]):
    """Endless draws that visit every class once per round, in a seeded
    order, taking a random member of the class each time.  Classes are
    keys of one cost (same query shape and p), so every seed gets the
    same mix of costs, not just the same mix of ops."""
    while True:
        order = list(range(len(classes)))
        rng.shuffle(order)
        for index in order:
            members = classes[index]
            yield members[rng.randrange(len(members))]


ESTIMATE_EPSILON = "1/4"
#: Hoeffding at (1/4, 1e-6) draws 116 samples; the interval misses the
#: exact value with probability far below 1e-6 per request, so a seed
#: never trips the containment check by chance.
ESTIMATE_DELTA = "1/1000000"


class Request:
    """One request of a schedule: op, params, and what to check."""

    __slots__ = ("op", "params", "check", "key")

    def __init__(self, op: str, params: dict, check: str, key):
        self.op, self.params, self.check, self.key = op, params, check, key


# ----------------------------------------------------------------------
# serve_exact
# ----------------------------------------------------------------------
EXACT_PS = (6, 7, 8)
EXACT_GRID = 16
EXACT_PASS = 420
#: (op, weight): the exact ops of ``benchmarks/bench_load.py``'s MIX in
#: its proportions (3 sweep : 2 evaluate : 1 evaluate_batch; its one
#: ``estimate`` is not exact and belongs to serve_churn).
EXACT_MIX = (("sweep", 3), ("evaluate", 2), ("evaluate_batch", 1))
#: The ``ps`` lists of ``evaluate_batch`` requests.
_EXACT_BATCHES = ((6, 7), (6, 8), (7, 8), (6, 7, 8))


def exact_keys(seed: int) -> list[tuple[str, int]]:
    rng = random.Random(f"serve_exact/keys/{seed}")
    tags = _tags(rng, len(UNSAFE_EXACT), set())
    texts = [instantiate(t, tag) for t, tag in zip(UNSAFE_EXACT, tags)]
    return [(text, p) for text in texts for p in EXACT_PS]


def exact_schedule(seed: int) -> list[Request]:
    """One pass over the warm keys in ``EXACT_MIX`` proportions, exactly:
    each op fills its share of the pass, in a seeded order."""
    rng = random.Random(f"serve_exact/schedule/{seed}")
    keys = exact_keys(seed)
    texts = sorted({text for text, _ in keys})
    total = sum(weight for _, weight in EXACT_MIX)
    ops = [op for op, weight in EXACT_MIX
           for _ in range(EXACT_PASS * weight // total)]
    rng.shuffle(ops)
    singles = {op: _rounds(rng, [[key] for key in keys])
               for op in ("sweep", "evaluate")}
    batches = _rounds(rng, [[(text, ps)] for text in texts
                            for ps in _EXACT_BATCHES])
    out = []
    for op in ops:
        if op == "evaluate_batch":
            text, ps = next(batches)
            out.append(Request("evaluate_batch",
                               {"query": text, "ps": list(ps)},
                               "evaluate_batch", (text, ps)))
            continue
        text, p = next(singles[op])
        if op == "sweep":
            out.append(Request("sweep", {"query": text, "p": p,
                                         "grid": EXACT_GRID},
                               "sweep_exact", (text, p)))
        else:
            out.append(Request("evaluate", {"query": text, "p": p},
                               "evaluate", (text, p)))
    return out


def exact_warmup(seed: int) -> list[Request]:
    """Every key swept and evaluated once before timing."""
    out = []
    for text, p in exact_keys(seed):
        out.append(Request("sweep", {"query": text, "p": p,
                                     "grid": EXACT_GRID},
                           "sweep_exact", (text, p)))
        out.append(Request("evaluate", {"query": text, "p": p},
                           "evaluate", (text, p)))
    return out


# ----------------------------------------------------------------------
# serve_churn
# ----------------------------------------------------------------------
CHURN_PS = tuple(range(1, 7))
CHURN_NEW_PS = (2, 3, 4, 5)
CHURN_PASS = 500
CHURN_NEW_SHARE = 0.05
CHURN_GRID = 16
#: New-formula keys are drawn per pass, up to this many passes.
CHURN_MAX_PASSES = 40
#: (op, share of a pass); ``CHURN_NEW_SHARE`` makes up the rest.  No
#: recorded traffic exists for these ops, so apart from ``estimate``
#: each share is an assumption, not a measurement:
#: - evaluate 0.22 and evaluate_safe 0.15: a point query is the commonest
#:   call of ``repro query``; safe queries are the minority that lifted
#:   inference answers without a circuit;
#: - sweep_float 0.18: curve plotting and scans, second after point
#:   queries (sweeps are the largest op in bench_load's MIX, there exact);
#: - compile 0.10: clients warming or fingerprinting a query first;
#: - sample 0.08 and top_k 0.07: explanation calls, rarer than counts;
#: - estimate 0.15: bench_load's MIX share for it (1 of 7).
CHURN_MIX = (("evaluate", 0.22), ("evaluate_safe", 0.15),
             ("sweep_float", 0.18), ("compile", 0.10), ("sample", 0.08),
             ("top_k", 0.07), ("estimate", 0.15))


class ChurnInputs:
    """The warm working set plus a per-pass supply of new formulas.

    Past ``CHURN_MAX_PASSES`` passes the last supply repeats, so a run
    that fast would see warm keys in the new-formula slots."""

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"serve_churn/keys/{seed}")
        used: set = set()
        #: One class per (query shape, p): its keys cost the same.
        self.unsafe_classes = [
            [(text, p) for text in texts] for texts in
            ([instantiate(t, tag) for tag in _tags(rng, 7, used)]
             for t in UNSAFE_CHURN) for p in CHURN_PS]
        self.safe_classes = [
            [(text, p) for text in texts] for texts in
            ([instantiate(t, tag) for tag in _tags(rng, 5, used)]
             for t in SAFE_CHURN) for p in CHURN_PS]
        self.unsafe = [key for keys in self.unsafe_classes for key in keys]
        self.safe = [key for keys in self.safe_classes for key in keys]
        self.base = self._base_schedule()
        #: base slot -> index among the pass's new-formula slots
        self._new_slot = {}
        for slot, request in enumerate(self.base):
            if request is None:
                self._new_slot[slot] = len(self._new_slot)
        self.new_keys = []
        for _ in range(CHURN_MAX_PASSES):
            keys = []
            for tag in _tags(rng, len(self._new_slot), used):
                template = UNSAFE_CHURN[rng.randrange(len(UNSAFE_CHURN))]
                keys.append((instantiate(template, tag),
                             rng.choice(CHURN_NEW_PS)))
            self.new_keys.append(keys)

    @property
    def keys(self) -> int:
        return len(self.unsafe) + len(self.safe)

    def _base_schedule(self) -> list:
        """One pass of warm requests, with ``None`` marking the slots
        that take a new formula."""
        rng = random.Random(f"serve_churn/schedule/{self.seed}")
        # Each op fills exactly its share of the pass, in a seeded
        # order, so seeds differ in keys and order but not in mix.
        ops = [op for op, share in CHURN_MIX
               for _ in range(round(share * CHURN_PASS))]
        ops += [None] * (CHURN_PASS - len(ops))
        rng.shuffle(ops)
        draws = {op: _rounds(rng, self.safe_classes
                             if op == "evaluate_safe"
                             else self.unsafe_classes)
                 for op, _ in CHURN_MIX}
        out = []
        for op in ops:
            if op is None:
                out.append(None)
                continue
            key = next(draws[op])
            if op == "evaluate_safe":
                out.append(Request("evaluate", _params(key), "evaluate",
                                   key))
                continue
            out.append(_warm_request(op, key, rng))
        return out

    def request(self, index: int) -> Request:
        """The ``index``-th request of the endless schedule: pass
        ``index // CHURN_PASS`` of the base pass, its new-formula
        slots filled from that pass's own fresh keys."""
        pass_index, slot = divmod(index, CHURN_PASS)
        request = self.base[slot]
        if request is not None:
            return request
        new_slot = self._new_slot[slot]
        key = self.new_keys[min(pass_index, CHURN_MAX_PASSES - 1)][new_slot]
        op = ("evaluate", "sweep_float", "compile")[new_slot % 3]
        return _warm_request(op, key, random.Random(index))

    def warmup(self) -> list[Request]:
        """Each unsafe key swept on the tape once (a compile plus a
        flatten), each safe key evaluated once, so every warm request
        finds its circuit and tape resident."""
        out = []
        for key in self.unsafe:
            out.append(Request("sweep", dict(_params(key),
                                             grid=CHURN_GRID,
                                             numeric="float"),
                               "sweep_float", key))
        for key in self.safe:
            out.append(Request("evaluate", _params(key), "evaluate", key))
        return out


def _params(key) -> dict:
    return {"query": key[0], "p": key[1]}


def _warm_request(op: str, key, rng: random.Random) -> Request:
    params = _params(key)
    if op == "evaluate":
        return Request("evaluate", params, "evaluate", key)
    if op == "sweep_float":
        params.update(grid=CHURN_GRID, numeric="float")
        return Request("sweep", params, "sweep_float", key)
    if op == "compile":
        return Request("compile", params, "compile", key)
    if op == "sample":
        params.update(k=4, seed=rng.randrange(2**31))
        return Request("sample", params, "sample", key)
    if op == "top_k":
        params.update(k=3)
        return Request("top_k", params, "top_k", key)
    if op == "estimate":
        params.update(epsilon=ESTIMATE_EPSILON, delta=ESTIMATE_DELTA,
                      seed=rng.randrange(2**31))
        return Request("estimate", params, "estimate", key)
    raise ValueError(f"unknown churn op {op!r}")

