"""Flat instruction tapes: the evaluator for every Pr(F).

This module lowers a compiled :class:`~repro.booleans.circuit.Circuit`
*once* into a :class:`Tape` — parallel arrays of opcodes, operand index
ranges, and a literal→slot table — and evaluates the tape with two
kernels over the identical instruction stream.  ``Circuit.probability``
and ``Circuit.probability_batch`` both run here, exact or float:

* a **float kernel** that processes all k weight vectors of a batch as
  contiguous lanes: one (slots x k) weight matrix, one vector operation
  per instruction.  It uses numpy when importable and falls back to a
  pure-stdlib ``array('d')`` loop, so the core stays dependency-free;
* an **exact kernel** on lazily normalized integers.  Each register
  holds an unreduced ``(num, den)`` pair of ints — one scalar pair
  while all k lanes agree, per-lane lists once they diverge (sweeps
  vary a handful of variables, so most of the tape runs once, not k
  times).  AND multiplies numerators and denominators and stops at a
  zero numerator; NEG is ``den - num``; OR adds numerators over equal
  denominators and otherwise combines over their lcm.  Exactly one
  ``Fraction`` is built per lane, at the root, and ``Fraction`` is
  canonical, so the result is bit-identical to any other exact
  evaluation (the per-node ``Circuit._forward``, say).

  Integer sizes stay bounded without any renormalization: AND operands
  mention pairwise disjoint variables (decomposability) and OR takes
  the lcm of its operands' denominators, so by induction every
  register's denominator divides the product of the weight
  denominators of the variables beneath it — however deep the circuit.

Lowering rules (one pass over the topologically ordered node table):

* ``("true",)`` / ``("false",)``  →  ``CONST1`` / ``CONST0``;
* ``("leaf", v)``                 →  ``LIT slot(v)``;
* ``("and", children)``           →  n-ary ``AND`` over child registers;
* ``("ite", v, hi, lo)``          →  ``OR(AND(LIT slot(v), hi),
  AND(NEG slot(v), lo))`` — the OR is *disjoint* (the two products are
  mutually exclusive on ``v``), so addition is the correct semantics.
  Constant branches peephole away: ``lo = false`` yields just
  ``AND(LIT, hi)``, ``hi = true`` yields ``OR(LIT, AND(NEG, lo))``.

``LIT``/``NEG`` registers are hash-consed per slot, slots are interned
by the type-tagged ``token_key`` (so ``True`` and ``1`` stay distinct
variables), and the slot table is assigned in first-use order over the
(deterministic) node table, so the tape — and its ``to_bytes``
serialization — is byte-identical across runs and ``PYTHONHASHSEED``
values, the same contract the circuit serialization already honours.

``tape_for_circuit`` memoizes the flattened tape on the circuit object
itself (circuits are immutable, so the tape lives exactly as long as
its circuit does — in particular alongside it in the ``tid.wmc``
memory LRU) and maintains module-level counters (``tape_hits``,
``tape_flattens``, ``tape_bytes``) surfaced through
``repro.tid.wmc.cache_info`` and the service ``stats`` op, so warm
paths can *prove* they never re-flatten.
"""

from __future__ import annotations

import json
import math
import threading

from array import array
from fractions import Fraction
from typing import Sequence

from repro.booleans.circuit import (
    AND, FALSE, HALF, ITE, LEAF, TRUE, Circuit, UnsupportedVersionError,
    WeightOverlay, decode_token, encode_token, token_key,
)
from repro import obs

try:  # optional accelerator only — every kernel has a stdlib fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None

#: Opcodes.  ``arg0``/``arg1`` meaning per op:
#: CONST0/CONST1: unused; LIT: slot index; NEG: source register;
#: AND/OR: [arg0, arg1) operand-register range into ``operands``.
OP_CONST0 = 0
OP_CONST1 = 1
OP_LIT = 2
OP_NEG = 3
OP_AND = 4
OP_OR = 5

#: Serialization format name / version (``Tape.to_bytes``).
TAPE_FORMAT_NAME = "repro-tape"
TAPE_FORMAT_VERSION = 1

_LOCK = threading.Lock()
_STATS = {"tape_hits": 0, "tape_flattens": 0, "tape_bytes": 0}


def tape_stats() -> dict:
    """A snapshot of the flattening counters (merged into
    ``repro.tid.wmc.cache_info``)."""
    with _LOCK:
        return dict(_STATS)


def reset_tape_stats() -> None:
    with _LOCK:
        for key in _STATS:
            _STATS[key] = 0


def _as_float(value, var, lane) -> float:
    """One float lane weight; non-finite weights are refused."""
    weight = float(value)
    if not math.isfinite(weight):
        raise ValueError(
            f"non-finite weight {weight!r} for variable {var!r} in "
            f"float lane {lane}; float sweeps require finite weights "
            f"(use numeric='exact' for symbolic inputs)")
    return weight


def _as_ratio(value, var, lane) -> tuple:
    """One exact lane weight as a ``(num, den)`` pair, ``den > 0``."""
    q = value if type(value) is Fraction else Fraction(value)
    return q.numerator, q.denominator


def _exact_lane_sum(an, ad, bn, bd) -> tuple:
    """Lane-wise ``an/ad + bn/bd`` over the lcm of the denominators."""
    if ad == bd:
        return [x + y for x, y in zip(an, bn)], ad
    gcd = math.gcd
    out_n: list = []
    out_d: list = []
    for x, p, y, q in zip(an, ad, bn, bd):
        if p == q:
            out_n.append(x + y)
            out_d.append(p)
        else:
            g = gcd(p, q)
            out_n.append(x * (q // g) + y * (p // g))
            out_d.append(p // g * q)
    return out_n, out_d


class Tape:
    """A flattened circuit: parallel instruction arrays plus the
    literal→slot table.  Instruction ``i`` writes register ``i``; the
    arrays are topologically ordered (operands strictly before users),
    mirroring the source circuit's node table."""

    __slots__ = ("ops", "arg0", "arg1", "operands", "slots", "root",
                 "circuit_nodes", "circuit_root", "_slot_index")

    def __init__(self, ops: array, arg0: array, arg1: array,
                 operands: array, slots: tuple, root: int,
                 circuit_nodes: int, circuit_root: int):
        self.ops = ops
        self.arg0 = arg0
        self.arg1 = arg1
        self.operands = operands
        self.slots = slots
        self.root = root
        self.circuit_nodes = circuit_nodes
        self.circuit_root = circuit_root
        self._slot_index = None

    # ------------------------------------------------------------------
    @property
    def n_instructions(self) -> int:
        return len(self.ops)

    @property
    def byte_size(self) -> int:
        """In-memory footprint of the instruction arrays (the unit the
        ``tape_bytes`` counter accumulates)."""
        return (len(self.ops) * self.ops.itemsize
                + len(self.arg0) * self.arg0.itemsize
                + len(self.arg1) * self.arg1.itemsize
                + len(self.operands) * self.operands.itemsize)

    def matches(self, circuit: Circuit) -> bool:
        """Whether this tape was flattened from ``circuit``'s node
        table (the store attaches deserialized tapes only on a match,
        so a stale tape can never answer for a different circuit)."""
        return (self.circuit_nodes == circuit.size
                and self.circuit_root == circuit.root)

    def validate(self) -> None:
        """Check every structural invariant the kernels rely on.

        Raises ``ValueError`` on the first violation: opcode out of
        range, operand-index out of bounds, operands not strictly
        before their users (topological order), n-ary ops with fewer
        than two operands, a root register out of range, duplicate
        entries in the literal-slot table, or a slot table that is not
        in first-use order (the flattener assigns slot ``j`` only
        after slots ``0..j-1`` have appeared, which is what makes the
        serialization byte-identical across hash seeds).

        ``from_bytes`` runs this on every deserialized tape so a
        corrupt-but-parseable ``.tape`` sidecar fails closed (the
        store maps that to a cache miss + unlink) instead of
        producing wrong numbers.  Flattened tapes satisfy it by
        construction.
        """
        ops, arg0, arg1 = self.ops, self.arg0, self.arg1
        operands, slots = self.operands, self.slots
        n = len(ops)
        if not (len(arg0) == len(arg1) == n):
            raise ValueError("corrupt tape: instruction arrays "
                             "disagree in length")
        if not isinstance(self.root, int) or \
                not 0 <= self.root < n:
            raise ValueError(
                f"root register {self.root!r} out of range")
        n_slots = len(slots)
        if len({token_key(var) for var in slots}) != n_slots:
            raise ValueError("corrupt tape: duplicate variables in "
                             "the literal-slot table")
        next_slot = 0  # first-use discipline: LITs reveal 0,1,2,...
        for i in range(n):
            op = ops[i]
            if op == OP_LIT:
                slot = arg0[i]
                if not 0 <= slot < n_slots:
                    raise ValueError(f"corrupt tape: instruction {i} "
                                     f"slot out of range")
                if slot > next_slot:
                    raise ValueError(
                        f"corrupt tape: instruction {i} uses slot "
                        f"{slot} before slots 0..{slot - 1} (slot "
                        f"table not in first-use order)")
                if slot == next_slot:
                    next_slot += 1
            elif op == OP_NEG:
                if not 0 <= arg0[i] < i:
                    raise ValueError(f"corrupt tape: instruction {i} "
                                     f"out of topological order")
            elif op in (OP_AND, OP_OR):
                start, stop = arg0[i], arg1[i]
                if not (0 <= start <= stop <= len(operands)):
                    raise ValueError(f"corrupt tape: instruction {i} "
                                     f"operand range out of bounds")
                if stop - start < 2:
                    raise ValueError(f"corrupt tape: instruction {i} "
                                     f"has fewer than two operands")
                for j in range(start, stop):
                    if not 0 <= operands[j] < i:
                        raise ValueError(
                            f"corrupt tape: instruction {i} out of "
                            f"topological order")
            elif op not in (OP_CONST0, OP_CONST1):
                raise ValueError(f"unknown opcode {op!r} at "
                                 f"instruction {i}")
        if next_slot != n_slots:
            raise ValueError(
                f"corrupt tape: {n_slots - next_slot} slot table "
                f"entr{'y' if n_slots - next_slot == 1 else 'ies'} "
                f"never referenced by a LIT instruction")

    def stats(self) -> dict:
        counts = [0] * 6
        for op in self.ops:
            counts[op] += 1
        return {
            "instructions": self.n_instructions,
            "slots": len(self.slots),
            "operand_refs": len(self.operands),
            "lit_ops": counts[OP_LIT],
            "neg_ops": counts[OP_NEG],
            "and_ops": counts[OP_AND],
            "or_ops": counts[OP_OR],
            "bytes": self.byte_size,
        }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, weight_specs: Sequence,
                 numeric: str = "exact",
                 default: Fraction | None = None) -> list:
        """``[Pr(F; w) for w in weight_specs]`` in one pass.

        ``weight_specs`` are raw weight specifications — each a
        mapping, a callable, or ``None``, with mapping misses falling
        back to ``default`` (1/2 when unspecified), exactly as in
        ``Circuit.probability_batch``.  ``numeric="exact"`` runs the
        integer kernel and returns ``Fraction``s; ``numeric="float"``
        runs the vectorized lane kernel — numpy when importable,
        stdlib arrays otherwise — and rejects non-finite weights with
        a ``ValueError`` naming the lane.
        """
        with obs.span("kernel", numeric=numeric,
                      lanes=len(weight_specs)):
            if numeric == "exact":
                return self._eval_exact(weight_specs, default)
            if numeric == "float":
                if _np is not None:
                    return self._eval_numpy(weight_specs, default)
                return self._eval_float_fallback(weight_specs, default)
            raise ValueError(
                f"numeric must be 'exact' or 'float', got {numeric!r}")

    def _slot_rows(self, weight_specs, default, convert) -> list:
        """Per-slot rows of converted lane weights, ``convert(value,
        var, lane)`` memoized by object identity.

        Sweep grids repeat weight objects heavily across lanes — each
        lane typically overlays a handful of variables on a shared
        base map — and converting a ``Fraction`` costs an order of
        magnitude more than the dict probe that fetched it, so
        conversions are memoized by ``id``.  The memo keeps every
        source object alive for the duration of the pass, so an id
        cannot be recycled onto a different value mid-build.  Mapping
        specs are probed through ``dict.get`` directly (no per-call
        closure); callables are called with the variable.
        """
        if weight_specs and all(type(spec) is WeightOverlay
                                for spec in weight_specs):
            rows = self._overlay_rows(weight_specs, default, convert)
            if rows is not None:
                return rows
        fallback = HALF if default is None else Fraction(default)
        probes = []
        for spec in weight_specs:
            if callable(spec):
                probes.append(lambda var, _d, spec=spec: spec(var))
            else:
                table = spec if type(spec) is dict else dict(spec or {})
                probes.append(table.get)
        memo: dict = {}
        rows = []
        for var in self.slots:
            row: list = []
            ap = row.append
            for probe in probes:
                value = probe(var, fallback)
                hit = memo.get(id(value))
                if hit is not None:
                    ap(hit[1])
                    continue
                weight = convert(value, var, len(row))
                memo[id(value)] = (value, weight)
                ap(weight)
            rows.append(row)
        return rows

    def _overlay_rows(self, specs, default, convert):
        """Fast fill for an all-``WeightOverlay`` batch sharing one
        base: convert the base column once, replicate it across lanes
        (C-speed list repeat), then poke the per-lane replacements —
        O(slots + overrides) weight probes instead of O(slots x lanes).
        Returns None when lanes disagree on the base object; the
        generic path handles that correctly, just slower."""
        base = specs[0].base
        if any(spec.base is not base for spec in specs):
            return None
        k = len(specs)
        rows = [[weight] * k for (weight,) in
                self._slot_rows([base], default, convert)]
        index = self._slot_index
        if index is None:
            index = self._slot_index = {
                token_key(var): s for s, var in enumerate(self.slots)}
        # Lanes pin the same token objects over and over, so slots
        # are memoized by id too (the specs keep the tokens alive).
        slot_of: dict = {}
        memo: dict = {}
        for lane, spec in enumerate(specs):
            for var, value in spec.pinned.items():
                s = slot_of.get(id(var), -1)
                if s == -1:
                    s = slot_of[id(var)] = index.get(token_key(var))
                if s is None:  # variable absent from the circuit
                    continue
                hit = memo.get(id(value))
                if hit is not None:
                    rows[s][lane] = hit[1]
                    continue
                weight = convert(value, var, lane)
                memo[id(value)] = (value, weight)
                rows[s][lane] = weight
        return rows

    def _eval_numpy(self, weight_specs, default) -> list:
        np = _np
        k = len(weight_specs)
        if k == 0:
            return []
        w = np.array(self._slot_rows(weight_specs, default, _as_float),
                     dtype=np.float64).reshape(len(self.slots), k)
        ops, arg0, arg1 = self.ops, self.arg0, self.arg1
        operands = self.operands
        regs: list = [None] * len(ops)
        for i in range(len(ops)):
            op = ops[i]
            if op == OP_LIT:
                regs[i] = w[arg0[i]]
            elif op == OP_AND:
                j, stop = arg0[i], arg1[i]
                acc = regs[operands[j]] * regs[operands[j + 1]]
                j += 2
                while j < stop:
                    acc *= regs[operands[j]]
                    j += 1
                regs[i] = acc
            elif op == OP_OR:
                j, stop = arg0[i], arg1[i]
                acc = regs[operands[j]] + regs[operands[j + 1]]
                j += 2
                while j < stop:
                    acc += regs[operands[j]]
                    j += 1
                regs[i] = acc
            elif op == OP_NEG:
                regs[i] = 1.0 - regs[arg0[i]]
            elif op == OP_CONST1:
                regs[i] = np.ones(k)
            else:
                regs[i] = np.zeros(k)
        return [float(x) for x in regs[self.root]]

    def _eval_float_fallback(self, weight_specs, default) -> list:
        """Pure-stdlib float lanes: one ``array('d')`` row per
        register, tight per-instruction loops — no numpy required."""
        k = len(weight_specs)
        if k == 0:
            return []
        slot_rows = [array("d", row) for row in
                     self._slot_rows(weight_specs, default, _as_float)]
        ops, arg0, arg1 = self.ops, self.arg0, self.arg1
        operands = self.operands
        regs: list = [None] * len(ops)
        ones = array("d", [1.0]) * k
        zeros = array("d", bytes(8 * k))
        rng = range(k)
        for i in range(len(ops)):
            op = ops[i]
            if op == OP_LIT:
                regs[i] = slot_rows[arg0[i]]
            elif op == OP_AND:
                j, stop = arg0[i], arg1[i]
                acc = array("d", regs[operands[j]])
                j += 1
                while j < stop:
                    src = regs[operands[j]]
                    for lane in rng:
                        acc[lane] *= src[lane]
                    j += 1
                regs[i] = acc
            elif op == OP_OR:
                j, stop = arg0[i], arg1[i]
                acc = array("d", regs[operands[j]])
                j += 1
                while j < stop:
                    src = regs[operands[j]]
                    for lane in rng:
                        acc[lane] += src[lane]
                    j += 1
                regs[i] = acc
            elif op == OP_NEG:
                src = regs[arg0[i]]
                acc = array("d", bytes(8 * k))
                for lane in rng:
                    acc[lane] = 1.0 - src[lane]
                regs[i] = acc
            elif op == OP_CONST1:
                regs[i] = ones
            else:
                regs[i] = zeros
        return list(regs[self.root])

    def _eval_exact(self, weight_specs, default) -> list:
        """The exact kernel: integer registers, one ``Fraction`` per
        lane at the root."""
        k = len(weight_specs)
        if k == 0:
            return []
        nums, dens = self._exact_registers(weight_specs, default)
        num, den = nums[self.root], dens[self.root]
        if type(num) is list:
            return [Fraction(n, d) for n, d in zip(num, den)]
        return [Fraction(num, den)] * k

    def _exact_registers(self, weight_specs, default) -> tuple:
        """Every register's unreduced ``(num, den)`` as two parallel
        lists; an entry is an int while all lanes agree on the pair,
        else a per-lane list of ints."""
        k = len(weight_specs)
        slot_num: list = []
        slot_den: list = []
        for row in self._slot_rows(weight_specs, default, _as_ratio):
            first = row[0]
            if row.count(first) == k:
                slot_num.append(first[0])
                slot_den.append(first[1])
            else:
                slot_num.append([q[0] for q in row])
                slot_den.append([q[1] for q in row])
        ops, arg0, arg1 = self.ops, self.arg0, self.arg1
        operands = self.operands
        n = len(ops)
        nums: list = [0] * n
        dens: list = [1] * n
        gcd = math.gcd
        for i in range(n):
            op = ops[i]
            if op == OP_LIT:
                nums[i] = slot_num[arg0[i]]
                dens[i] = slot_den[arg0[i]]
            elif op == OP_AND:
                sn = sd = 1
                wide = []
                for j in range(arg0[i], arg1[i]):
                    r = operands[j]
                    cn = nums[r]
                    if type(cn) is list:
                        wide.append(r)
                    elif cn:
                        sn *= cn
                        sd *= dens[r]
                    else:
                        sn = 0
                        break
                if not sn:
                    continue  # registers start at 0/1
                if not wide:
                    nums[i], dens[i] = sn, sd
                    continue
                rn, rd = nums[wide[0]], dens[wide[0]]
                if sn != 1 or sd != 1:
                    rn = [sn * x for x in rn]
                    rd = [sd * x for x in rd]
                for r in wide[1:]:
                    rn = [x * y for x, y in zip(rn, nums[r])]
                    rd = [x * y for x, y in zip(rd, dens[r])]
                nums[i], dens[i] = rn, rd
            elif op == OP_OR:
                sn, sd = 0, 1
                wide = []
                for j in range(arg0[i], arg1[i]):
                    r = operands[j]
                    cn = nums[r]
                    if type(cn) is list:
                        wide.append(r)
                    elif cn:
                        cd = dens[r]
                        if cd == sd:
                            sn += cn
                        elif not sn:
                            sn, sd = cn, cd
                        else:
                            g = gcd(sd, cd)
                            sn = sn * (cd // g) + cn * (sd // g)
                            sd = sd // g * cd
                if not wide:
                    nums[i], dens[i] = sn, sd
                    continue
                rn, rd = nums[wide[0]], dens[wide[0]]
                if sn:
                    rn, rd = _exact_lane_sum(rn, rd, [sn] * k, [sd] * k)
                for r in wide[1:]:
                    rn, rd = _exact_lane_sum(rn, rd, nums[r], dens[r])
                nums[i], dens[i] = rn, rd
            elif op == OP_NEG:
                r = arg0[i]
                cn, cd = nums[r], dens[r]
                if type(cn) is list:
                    nums[i] = [d - x for x, d in zip(cn, cd)]
                else:
                    nums[i] = cd - cn
                dens[i] = cd
            elif op == OP_CONST1:
                nums[i] = 1
        return nums, dens

    # ------------------------------------------------------------------
    # Serialization (versioned, exact round trip)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """A versioned JSON-lines serialization: header, then one line
        per parallel array.  Byte-identical across hash seeds because
        the flattening order follows the (deterministic) node table."""
        header = {
            "format": TAPE_FORMAT_NAME,
            "version": TAPE_FORMAT_VERSION,
            "root": self.root,
            "instructions": len(self.ops),
            "operand_refs": len(self.operands),
            "circuit_nodes": self.circuit_nodes,
            "circuit_root": self.circuit_root,
            "slots": [encode_token(var) for var in self.slots],
        }
        lines = [json.dumps(header, separators=(",", ":"),
                            sort_keys=True)]
        for arr in (self.ops, self.arg0, self.arg1, self.operands):
            lines.append(json.dumps(list(arr), separators=(",", ":")))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Tape":
        """Reconstruct a tape serialized by ``to_bytes``.

        Raises ``ValueError`` on any malformed payload (the disk store
        treats that as a cache miss) and ``UnsupportedVersionError``
        on version skew, mirroring ``Circuit.from_bytes``.
        """
        try:
            lines = data.decode("utf-8").splitlines()
            header = json.loads(lines[0])
        except (UnicodeDecodeError, json.JSONDecodeError,
                IndexError) as e:
            raise ValueError(f"not a serialized tape: {e}") from None
        if not isinstance(header, dict) or \
                header.get("format") != TAPE_FORMAT_NAME:
            raise ValueError("not a serialized tape: bad header")
        if header.get("version") != TAPE_FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"unsupported tape format version "
                f"{header.get('version')!r} (this build reads "
                f"{TAPE_FORMAT_VERSION})")
        if len(lines) != 5:
            raise ValueError(
                f"truncated tape: expected 5 lines, found {len(lines)}")
        try:
            slots = tuple(decode_token(obj)
                          for obj in header["slots"])
            ops = array("B", json.loads(lines[1]))
            arg0 = array("i", json.loads(lines[2]))
            arg1 = array("i", json.loads(lines[3]))
            operands = array("i", json.loads(lines[4]))
            root = header["root"]
            count = header["instructions"]
            circuit_nodes = header["circuit_nodes"]
            circuit_root = header["circuit_root"]
        except (KeyError, IndexError, TypeError, ValueError,
                OverflowError, json.JSONDecodeError) as e:
            raise ValueError(f"corrupt tape payload: {e}") from None
        if not (len(ops) == len(arg0) == len(arg1) == count):
            raise ValueError("corrupt tape: array lengths disagree "
                             "with the header")
        if len(operands) != header.get("operand_refs"):
            raise ValueError("corrupt tape: operand table length "
                             "disagrees with the header")
        if not isinstance(circuit_nodes, int) or \
                not isinstance(circuit_root, int):
            raise ValueError("corrupt tape: bad circuit binding")
        tape = cls(ops, arg0, arg1, operands, slots, root,
                   circuit_nodes, circuit_root)
        # Fail closed: a corrupt-but-parseable sidecar must raise here
        # (the store turns that into a cache miss + unlink), never
        # produce wrong numbers.
        tape.validate()
        return tape


# ----------------------------------------------------------------------
# Flattening
# ----------------------------------------------------------------------
class _Flattener:
    """One-pass lowering of a circuit's node table into a tape."""

    def __init__(self):
        self.ops = array("B")
        # 32-bit indices: tapes ride along with every cached circuit,
        # so half the footprint of "q" matters more than range.
        self.arg0 = array("i")
        self.arg1 = array("i")
        self.operands = array("i")
        self.slot_ids: dict = {}
        self._slot_by_id: dict = {}
        self.slots: list = []
        self._lit_regs: dict = {}
        self._neg_regs: dict = {}
        self._pair_regs: dict = {}
        self._const0: int | None = None
        self._const1: int | None = None

    def _emit(self, op: int, a0: int = 0, a1: int = 0) -> int:
        reg = len(self.ops)
        self.ops.append(op)
        self.arg0.append(a0)
        self.arg1.append(a1)
        return reg

    def const0(self) -> int:
        if self._const0 is None:
            self._const0 = self._emit(OP_CONST0)
        return self._const0

    def const1(self) -> int:
        if self._const1 is None:
            self._const1 = self._emit(OP_CONST1)
        return self._const1

    def _slot(self, var) -> int:
        # Slots are keyed by token_key, so hash-equal tokens (True vs
        # 1) stay distinct; the id memo skips re-keying a token object
        # the node table repeats (the circuit keeps it alive).
        sid = self._slot_by_id.get(id(var))
        if sid is None:
            key = token_key(var)
            sid = self.slot_ids.get(key)
            if sid is None:
                sid = self.slot_ids[key] = len(self.slots)
                self.slots.append(var)
            self._slot_by_id[id(var)] = sid
        return sid

    def lit(self, var) -> int:
        sid = self._slot(var)
        reg = self._lit_regs.get(sid)
        if reg is None:
            reg = self._lit_regs[sid] = self._emit(OP_LIT, sid)
        return reg

    def neg(self, var) -> int:
        sid = self._slot(var)
        reg = self._neg_regs.get(sid)
        if reg is None:
            reg = self._neg_regs[sid] = self._emit(OP_NEG,
                                                   self.lit(var))
        return reg

    def _nary(self, op: int, regs: Sequence[int]) -> int:
        start = len(self.operands)
        self.operands.extend(regs)
        return self._emit(op, start, len(self.operands))

    def product(self, regs: Sequence[int]) -> int:
        if len(regs) == 1:
            return regs[0]
        if len(regs) == 2:
            # Hash-cons the 2-ary products: distinct ITE nodes over the
            # same variable routinely share a (literal, branch) term.
            key = (regs[0], regs[1])
            reg = self._pair_regs.get(key)
            if reg is None:
                reg = self._pair_regs[key] = self._nary(OP_AND, regs)
            return reg
        return self._nary(OP_AND, regs)

    def disjoint_sum(self, regs: Sequence[int]) -> int:
        if len(regs) == 1:
            return regs[0]
        return self._nary(OP_OR, regs)


def flatten_circuit(circuit: Circuit) -> Tape:
    """Lower ``circuit`` into a fresh :class:`Tape` (pure function; use
    :func:`tape_for_circuit` for the cached entry point)."""
    fl = _Flattener()
    nodes = circuit.nodes
    node_reg = [0] * len(nodes)
    for i, node in enumerate(nodes):
        kind = node[0]
        if kind is ITE:
            var = node[1]
            hi, lo = node[2], node[3]
            hi_kind, lo_kind = nodes[hi][0], nodes[lo][0]
            terms = []
            if hi_kind is TRUE:
                terms.append(fl.lit(var))
            elif hi_kind is not FALSE:
                terms.append(fl.product([fl.lit(var), node_reg[hi]]))
            if lo_kind is TRUE:
                terms.append(fl.neg(var))
            elif lo_kind is not FALSE:
                terms.append(fl.product([fl.neg(var), node_reg[lo]]))
            node_reg[i] = fl.disjoint_sum(terms) if terms \
                else fl.const0()
        elif kind is AND:
            regs = []
            short_circuit = False
            for child in node[1]:
                child_kind = nodes[child][0]
                if child_kind is FALSE:
                    short_circuit = True
                    break
                if child_kind is not TRUE:
                    regs.append(node_reg[child])
            if short_circuit:
                node_reg[i] = fl.const0()
            elif regs:
                node_reg[i] = fl.product(regs)
            else:
                node_reg[i] = fl.const1()
        elif kind is LEAF:
            node_reg[i] = fl.lit(node[1])
        elif kind is TRUE:
            node_reg[i] = fl.const1()
        else:
            node_reg[i] = fl.const0()
    return Tape(fl.ops, fl.arg0, fl.arg1, fl.operands,
                tuple(fl.slots), node_reg[circuit.root],
                len(nodes), circuit.root)


# ----------------------------------------------------------------------
# Per-circuit memoization + counters
# ----------------------------------------------------------------------
def peek_tape(circuit: Circuit) -> Tape | None:
    """The tape already attached to ``circuit``, if any (no counter
    side effects)."""
    return circuit._tape


def adopt_tape(circuit: Circuit, tape: Tape) -> bool:
    """Attach a deserialized ``tape`` to ``circuit`` (the warm-store
    path: a matching tape loaded from disk means the service never
    re-flattens).  Returns False — and leaves the circuit untouched —
    if the tape does not match or a tape is already attached."""
    if not tape.matches(circuit):
        return False
    with _LOCK:
        if circuit._tape is not None:
            return False
        circuit._tape = tape
        _STATS["tape_bytes"] += tape.byte_size
    return True


def tape_for_circuit(circuit: Circuit) -> Tape:
    """The memoized tape for ``circuit``: flatten once, reuse forever.

    The tape is stored on the circuit object itself, so the ``tid.wmc``
    memory LRU keeps circuit and tape together and evicts them
    together.  Counters: ``tape_hits`` counts reuses, ``tape_flattens``
    counts actual lowerings, ``tape_bytes`` accumulates the footprint
    of attached tapes.
    """
    with _LOCK:
        tape = circuit._tape
        if tape is not None:
            _STATS["tape_hits"] += 1
            return tape
    with obs.span("flatten"):
        tape = flatten_circuit(circuit)
    with _LOCK:
        if circuit._tape is None:
            circuit._tape = tape
            _STATS["tape_flattens"] += 1
            _STATS["tape_bytes"] += tape.byte_size
        else:
            # Lost a flattening race; count the reuse, drop our copy.
            _STATS["tape_hits"] += 1
        return circuit._tape
