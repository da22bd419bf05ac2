"""The flat instruction-tape engine: kernels, serialization, caching.

Contracts pinned here: the tape's exact kernel is *bit-identical* to
the per-node ``Circuit._forward`` pass, run once per lane, on
arbitrary formulas and weight batches (same Fractions, not
approximations), and its integer registers keep the denominator bound
that makes renormalization unnecessary; the float kernels (numpy and
the stdlib fallback) agree with the exact values to float tolerance
and reject non-finite weights loudly; hash-equal variable tokens
(``True`` vs ``1``) get distinct slots; ``to_bytes``/``from_bytes`` round
trips exactly and is byte-identical across ``PYTHONHASHSEED`` values;
``tape_for_circuit`` flattens once per circuit and the counters prove
it.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans import tape as tape_module
from repro.booleans.circuit import (
    AND,
    LEAF,
    Circuit,
    UnsupportedVersionError,
    WeightOverlay,
    compile_cnf,
    make_lookup,
)
from repro.booleans.cnf import CNF
from repro.booleans.tape import (
    Tape,
    adopt_tape,
    flatten_circuit,
    peek_tape,
    reset_tape_stats,
    tape_for_circuit,
    tape_stats,
)
from repro.core.generate import random_query
from repro.tid.lineage import lineage

from test_property_evaluation import SMALL, build_tid

F = Fraction

SRC = str(Path(__file__).resolve().parent.parent / "src")


def rst_formula():
    """A small block lineage with shared structure (ITE + AND nodes)."""
    from repro.core.catalog import rst_query
    from repro.reduction.blocks import path_block

    query = rst_query()
    tid = path_block(query, 4)
    return lineage(query, tid), tid


def forward_oracle(circuit, specs, default=None):
    """Pr(F) per lane from the per-node exact pass, independent of the
    tape."""
    return [circuit._forward(make_lookup(spec, default))[circuit.root]
            for spec in specs]


def random_formula_and_weights(query_seed, tid_seed, k=3):
    query = random_query(query_seed, SMALL)
    tid = build_tid(query, tid_seed)
    formula = lineage(query, tid)
    rng = random.Random(query_seed * 31 + tid_seed)
    variables = sorted(formula.variables(), key=repr)
    specs = []
    for _ in range(k):
        specs.append({var: F(rng.randrange(0, 8), 7)
                      for var in variables
                      if rng.random() < 0.8})  # some fall to default
    return formula, specs


class TestKernelAgreement:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_exact_kernel_bit_identical_to_node(self, qs, ts):
        formula, specs = random_formula_and_weights(qs, ts)
        circuit = compile_cnf(formula)
        node = forward_oracle(circuit, specs)
        tape = circuit.probability_batch(specs)
        assert node == tape
        assert all(isinstance(v, Fraction) for v in tape)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_float_kernel_matches_exact(self, qs, ts):
        formula, specs = random_formula_and_weights(qs, ts)
        circuit = compile_cnf(formula)
        exact = forward_oracle(circuit, specs)
        floats = circuit.probability_batch(specs, numeric="float")
        assert all(abs(f - float(e)) < 1e-9
                   for f, e in zip(floats, exact))

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_fallback_kernel_matches_numpy(self, qs, ts):
        formula, specs = random_formula_and_weights(qs, ts)
        tape = flatten_circuit(compile_cnf(formula))
        with_numpy = tape.evaluate(specs, numeric="float")
        saved = tape_module._np
        tape_module._np = None
        try:
            without = tape.evaluate(specs, numeric="float")
        finally:
            tape_module._np = saved
        assert all(abs(a - b) < 1e-12
                   for a, b in zip(with_numpy, without))

    def test_empty_batch(self):
        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        assert tape.evaluate([], numeric="exact") == []
        assert tape.evaluate([], numeric="float") == []

    def test_rejects_unknown_numeric(self):
        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        with pytest.raises(ValueError, match="numeric"):
            tape.evaluate([{}], numeric="decimal")

    def test_constant_circuits(self):
        true_tape = flatten_circuit(compile_cnf(CNF.TRUE))
        false_tape = flatten_circuit(compile_cnf(CNF.FALSE))
        assert true_tape.evaluate([None, None]) == [F(1), F(1)]
        assert false_tape.evaluate([None], numeric="float") == [0.0]


#: Lane weights for the exact-kernel property: mixed denominators (the
#: lcm path of OR), 0 (the AND early exit), 1, and int/float inputs.
WEIGHT_POOL = (F(1, 3), F(2, 7), F(5, 11), F(1, 2), 0, 1, 0.5, 0.1)


def mixed_lanes(formula, seed, k):
    """k weight maps over ``formula``'s variables drawn from
    ``WEIGHT_POOL``; about half the lanes copy their predecessor with
    one variable changed (the sweep shape), so registers are uniform
    across lanes on part of the tape and per-lane on the rest."""
    rng = random.Random(seed)
    variables = sorted(formula.variables(), key=repr)
    lanes = []
    for _ in range(k):
        if lanes and variables and rng.random() < 0.5:
            lane = dict(lanes[-1])
            lane[rng.choice(variables)] = rng.choice(WEIGHT_POOL)
        else:
            lane = {var: rng.choice(WEIGHT_POOL) for var in variables
                    if rng.random() < 0.9}  # the rest fall to 1/2
        lanes.append(lane)
    return lanes


def register_variables(tape):
    """The set of slots each tape register depends on."""
    out = []
    for i, op in enumerate(tape.ops):
        if op == tape_module.OP_LIT:
            out.append(frozenset((tape.arg0[i],)))
        elif op == tape_module.OP_NEG:
            out.append(out[tape.arg0[i]])
        elif op in (tape_module.OP_AND, tape_module.OP_OR):
            out.append(frozenset().union(*(
                out[tape.operands[j]]
                for j in range(tape.arg0[i], tape.arg1[i]))))
        else:
            out.append(frozenset())
    return out


class TestExactKernel:
    @given(st.integers(0, 10_000), st.integers(0, 10_000),
           st.integers(0, 10_000), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_integer_kernel_property(self, qs, ts, ws, k):
        query = random_query(qs, SMALL)
        formula = lineage(query, build_tid(query, ts))
        circuit = compile_cnf(formula)
        lanes = mixed_lanes(formula, ws, k)
        tape = flatten_circuit(circuit)

        exact = tape.evaluate(lanes)
        assert exact == forward_oracle(circuit, lanes)
        assert all(type(v) is Fraction for v in exact)
        floats = tape.evaluate(lanes, numeric="float")
        assert all(abs(f - float(e)) <= 1e-12
                   for f, e in zip(floats, exact))

        # The bound that makes renormalization unnecessary: every
        # register's denominator divides the product of the weight
        # denominators of the variables beneath it.
        slot_dens = [[F(make_lookup(lane)(var)).denominator
                      for lane in lanes] for var in tape.slots]
        _, dens = tape._exact_registers(lanes, None)
        for slots, den in zip(register_variables(tape), dens):
            for lane in range(k):
                d = den[lane] if isinstance(den, list) else den
                bound = 1
                for s in slots:
                    bound *= slot_dens[s][lane]
                assert d > 0 and bound % d == 0

    def test_probability_is_one_tape_pass(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        reset_tape_stats()
        value = circuit.probability(tid.probability)
        assert value == forward_oracle(circuit, [tid.probability])[0]
        assert circuit.probability_batch([tid.probability]) == [value]
        stats = tape_stats()
        assert stats["tape_flattens"] == 1
        assert stats["tape_hits"] == 1

    def test_weights_outside_the_unit_interval(self):
        """The integer kernel is exact rational arithmetic, not just
        probability arithmetic: negative numerators from NEG and
        weights above 1 agree with the oracle too."""
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        specs = [{var: F(-1, 3) if j % 2 else F(3, 2)
                  for j, var in enumerate(variables)},
                 {var: F(j - 2, 5) for j, var in enumerate(variables)}]
        assert circuit.probability_batch(specs) == \
            forward_oracle(circuit, specs)

    def test_default_weight_and_non_fraction_inputs(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        specs = [None, {}, lambda var: 1, lambda var: 0.25]
        for default in (None, F(1, 3), 1):
            assert circuit.probability_batch(specs, default) == \
                forward_oracle(circuit, specs, default)


class TestHashEqualTokens:
    """``True == 1`` and ``hash(True) == hash(1)``: slots must be keyed
    by the type-tagged token, or both variables share one weight."""

    @staticmethod
    def circuit():
        return Circuit(((LEAF, True), (LEAF, 1), (AND, (0, 1))), 2)

    @staticmethod
    def lookup(var):
        if var is True:
            return F(1, 3)
        if type(var) is int and var == 1:
            return F(1, 5)
        raise AssertionError(var)

    def test_float_lanes_keep_tokens_apart(self):
        circuit = self.circuit()
        (value,) = circuit.probability_batch([self.lookup],
                                             numeric="float")
        assert value == pytest.approx(1 / 15, abs=1e-15)
        assert circuit.probability(self.lookup) == F(1, 15)
        assert len(tape_for_circuit(circuit).slots) == 2

    def test_nested_tokens_keep_apart(self):
        circuit = Circuit(((LEAF, ("R", True)), (LEAF, ("R", 1)),
                           (AND, (0, 1))), 2)

        def lookup(var):
            return F(1, 3) if var[1] is True else F(1, 5)

        assert circuit.probability_batch([lookup], numeric="float") \
            == [pytest.approx(1 / 15, abs=1e-15)]

    def test_tape_round_trip_validates(self):
        tape = flatten_circuit(self.circuit())
        back = Tape.from_bytes(tape.to_bytes())  # validate(): no raise
        assert back.slots == tape.slots
        assert [type(v) for v in back.slots] == [bool, int]

    def test_overlay_pins_only_its_own_type(self):
        circuit = self.circuit()
        specs = [WeightOverlay(self.lookup, {True: F(1, 2)}),
                 WeightOverlay(self.lookup, {1: F(1, 2)})]
        want = [F(1, 10), F(1, 6)]
        assert circuit.probability_batch(specs) == want
        floats = circuit.probability_batch(specs, numeric="float")
        assert floats == [pytest.approx(float(w), abs=1e-15)
                          for w in want]


class TestWeightOverlay:
    def test_overlay_specs_match_dicts(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        base = tid.probability
        overlays = [{variables[j % len(variables)]: F(j + 1, 11)}
                    for j in range(6)]
        dict_specs = []
        for o in overlays:
            d = {v: tid.probability(v) for v in variables}
            d.update(o)
            dict_specs.append(d)
        overlay_specs = [WeightOverlay(base, o) for o in overlays]
        for numeric in ("exact", "float"):
            want = circuit.probability_batch(dict_specs,
                                             numeric=numeric)
            got = circuit.probability_batch(overlay_specs,
                                            numeric=numeric)
            if numeric == "exact":
                assert got == want
            else:
                assert all(abs(a - b) < 1e-12
                           for a, b in zip(got, want))

    def test_overlay_is_callable_spec(self):
        overlay = WeightOverlay({"x": F(1, 3)}, {"y": F(1, 5)})
        assert overlay("y") == F(1, 5)
        assert overlay("x") == F(1, 3)
        assert overlay("z") == F(1, 2)  # base-map miss -> default 1/2

    def test_mixed_bases_fall_back_to_generic_path(self):
        """Lanes with *different* base objects still evaluate
        correctly (the fast fill requires one shared base)."""
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        base_a = {v: F(1, 3) for v in variables}
        base_b = {v: F(2, 5) for v in variables}
        specs = [WeightOverlay(base_a, {variables[0]: F(1, 7)}),
                 WeightOverlay(base_b, {variables[1]: F(6, 7)})]
        tape = flatten_circuit(circuit)
        exact = tape.evaluate(specs)
        floats = tape.evaluate(specs, numeric="float")
        want = [circuit.probability(spec) for spec in specs]
        assert exact == want
        assert all(abs(f - float(e)) < 1e-9
                   for f, e in zip(floats, want))

    def test_overlay_of_unknown_variable_is_ignored(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        plain = WeightOverlay(tid.probability, {})
        stray = WeightOverlay(tid.probability,
                              {("not", "a", "circuit", "var"): F(1, 9)})
        tape = flatten_circuit(circuit)
        a, b = tape.evaluate([plain, stray], numeric="float")
        assert a == b


class TestNonFiniteGuards:
    def _poisoned(self, bad):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        good = {v: 0.5 for v in variables}
        poisoned = dict(good)
        poisoned[variables[1]] = bad
        return circuit, [good, poisoned]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_tape_numpy_kernel_names_lane(self, bad):
        circuit, specs = self._poisoned(bad)
        with pytest.raises(ValueError, match="float lane 1"):
            circuit.probability_batch(specs, numeric="float")

    def test_tape_fallback_kernel_names_lane(self, monkeypatch):
        circuit, specs = self._poisoned(float("nan"))
        monkeypatch.setattr(tape_module, "_np", None)
        with pytest.raises(ValueError, match="float lane 1"):
            circuit.probability_batch(specs, numeric="float")

    def test_overlay_fast_fill_names_lane(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        var = sorted(circuit.variables(), key=repr)[0]
        specs = [WeightOverlay(tid.probability, {}),
                 WeightOverlay(tid.probability, {var: float("inf")})]
        with pytest.raises(ValueError, match="float lane 1"):
            circuit.probability_batch(specs, numeric="float")

    def test_exact_path_accepts_what_float_rejects(self):
        """The guard is float-only: symbolic/extreme exact inputs keep
        working on the exact kernels."""
        circuit, specs = self._poisoned(float("inf"))
        specs[1][sorted(circuit.variables(), key=repr)[1]] = F(1, 2)
        assert circuit.probability_batch(specs) == \
            forward_oracle(circuit, specs)


class TestSerialization:
    def test_round_trip_is_byte_identical(self):
        formula, tid = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        data = tape.to_bytes()
        back = Tape.from_bytes(data)
        assert back.to_bytes() == data
        assert back.slots == tape.slots
        assert back.root == tape.root
        assert back.stats() == tape.stats()
        specs = [tid.probability, None]
        assert back.evaluate(specs) == tape.evaluate(specs)

    def test_round_trip_preserves_matching(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        back = Tape.from_bytes(flatten_circuit(circuit).to_bytes())
        assert back.matches(circuit)
        other = compile_cnf(CNF([["a", "b"], ["b", "c"]]))
        assert not back.matches(other)

    def test_version_skew_raises_unsupported(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        lines = data.decode("utf-8").splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        with pytest.raises(UnsupportedVersionError):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    @pytest.mark.parametrize("mangle", [
        lambda d: b"not a tape at all",
        lambda d: d[: len(d) // 2],
        lambda d: d.replace(b'"root":', b'"root":9999, "x":', 1),
    ])
    def test_corrupt_payloads_raise_value_error(self, mangle):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        with pytest.raises(ValueError):
            Tape.from_bytes(mangle(data))

    def test_operand_topology_is_validated(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        lines = data.decode("utf-8").splitlines()
        operands = json.loads(lines[4])
        operands[-1] = 10_000  # forward reference
        lines[4] = json.dumps(operands)
        with pytest.raises(ValueError, match="topological|range"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))


def _mangled_lines(data):
    lines = data.decode("utf-8").splitlines()
    return json.loads(lines[0]), lines


class TestValidate:
    """``Tape.validate`` — the structural gate ``from_bytes`` runs so
    corrupt-but-parseable sidecars fail closed."""

    def test_fresh_tapes_validate(self):
        formula, _ = rst_formula()
        flatten_circuit(compile_cnf(formula)).validate()  # no raise
        flatten_circuit(compile_cnf(CNF([]))).validate()  # constant

    def test_duplicate_slot_table_entry(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        header, lines = _mangled_lines(data)
        assert len(header["slots"]) >= 2
        header["slots"][1] = header["slots"][0]
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError, match="duplicate"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    def test_slot_table_first_use_order(self):
        # Pointing the first LIT at the last slot is a parseable tape
        # that would bind weights to the wrong variables — it must be
        # rejected, not evaluated.
        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        data = tape.to_bytes()
        header, lines = _mangled_lines(data)
        ops = json.loads(lines[1])
        arg0 = json.loads(lines[2])
        first_lit = ops.index(tape_module.OP_LIT)
        assert arg0[first_lit] == 0 and len(header["slots"]) > 1
        arg0[first_lit] = len(header["slots"]) - 1
        lines[2] = json.dumps(arg0)
        with pytest.raises(ValueError, match="first-use"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    def test_unreferenced_slot_entry(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        header, lines = _mangled_lines(data)
        header["slots"].append(["s", "never-used-variable"])
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError, match="never referenced"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    def test_unknown_opcode(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        _, lines = _mangled_lines(data)
        ops = json.loads(lines[1])
        ops[0] = 9
        lines[1] = json.dumps(ops)
        with pytest.raises(ValueError, match="opcode"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    def test_direct_validate_catches_bad_arity(self):
        from array import array

        tape = Tape(array("B", [tape_module.OP_CONST1,
                               tape_module.OP_AND]),
                    array("q", [0, 0]), array("q", [0, 1]),
                    array("q", [0]), (), 1, 2, 1)
        with pytest.raises(ValueError, match="fewer than two"):
            tape.validate()

    def test_invalid_sidecar_is_store_miss_and_removed(self, tmp_path):
        # Parseable-but-invalid .tape sidecars go through the same
        # corrupt→miss+unlink path as unparseable garbage.
        from repro.booleans.store import CircuitStore

        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        store = CircuitStore(tmp_path)
        path = store.put_tape(formula, tape)
        header, lines = _mangled_lines(path.read_bytes())
        ops = json.loads(lines[1])
        arg0 = json.loads(lines[2])
        arg0[ops.index(tape_module.OP_LIT)] = len(header["slots"]) - 1
        lines[2] = json.dumps(arg0)
        path.write_bytes("\n".join(lines).encode("utf-8"))
        assert store.get_tape(formula) is None
        assert not path.exists()


_PROBE = """
import hashlib, json
from repro.booleans.circuit import compile_cnf
from repro.booleans.tape import flatten_circuit
from repro.core.catalog import rst_query
from repro.reduction.blocks import path_block
from repro.tid.lineage import lineage

query = rst_query()
tid = path_block(query, 3)
circuit = compile_cnf(lineage(query, tid))
tape = flatten_circuit(circuit)
print(json.dumps({
    "bytes": hashlib.sha256(tape.to_bytes()).hexdigest(),
    "stats": tape.stats(),
    "block_probability": str(tape.evaluate([tid.probability])[0]),
}))
"""


def _probe(hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


class TestDeterminism:
    def test_tape_bytes_identical_across_hash_seeds(self):
        assert _probe("0") == _probe("12345")


class TestCachingAndCounters:
    def test_flatten_once_then_hits(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        reset_tape_stats()
        assert peek_tape(circuit) is None
        tape = tape_for_circuit(circuit)
        again = tape_for_circuit(circuit)
        assert again is tape
        stats = tape_stats()
        assert stats["tape_flattens"] == 1
        assert stats["tape_hits"] == 1
        assert stats["tape_bytes"] == tape.byte_size

    def test_probability_batch_reuses_attached_tape(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        reset_tape_stats()
        grid = [{v: F(i + 1, 9) for v in circuit.variables()}
                for i in range(3)]
        circuit.probability_batch(grid, numeric="float")
        circuit.probability_batch(grid, numeric="float")
        stats = tape_stats()
        assert stats["tape_flattens"] == 1
        assert stats["tape_hits"] >= 1

    def test_adopt_tape_rejects_mismatch(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        other = compile_cnf(CNF([["a", "b"], ["b", "c"]]))
        stray = flatten_circuit(other)
        assert not adopt_tape(circuit, stray)
        assert peek_tape(circuit) is None

    def test_adopt_tape_attaches_match_once(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        reset_tape_stats()
        loaded = Tape.from_bytes(flatten_circuit(circuit).to_bytes())
        assert adopt_tape(circuit, loaded)
        assert peek_tape(circuit) is loaded
        assert not adopt_tape(circuit, loaded)  # already attached
        stats = tape_stats()
        # flatten_circuit is pure and never counts; adoption only adds
        # the loaded tape's footprint.
        assert stats["tape_flattens"] == 0
        assert stats["tape_bytes"] >= loaded.byte_size
        # the attached tape now serves probability_batch
        assert tape_for_circuit(circuit) is loaded


class TestFlattening:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_tape_is_smaller_or_similar_per_node(self, qs):
        """Flattening is linear: instructions stay within a small
        constant of the circuit's node count."""
        query = random_query(qs, SMALL)
        tid = build_tid(query, qs)
        circuit = compile_cnf(lineage(query, tid))
        tape = flatten_circuit(circuit)
        assert tape.n_instructions <= 4 * circuit.size + 2
        assert 0 <= tape.root < tape.n_instructions

    def test_flatten_is_pure(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        a = flatten_circuit(circuit)
        b = flatten_circuit(circuit)
        assert a is not b
        assert a.to_bytes() == b.to_bytes()
        assert peek_tape(circuit) is None  # no attachment side effect
