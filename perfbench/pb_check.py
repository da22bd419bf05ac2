"""Correctness checks on the program's outputs.

Every reply the benchmark times is compared against a value the
library computes outside the timed window.  A ``Checker`` collects
the first few mismatches with their context; one mismatch fails the
run.
"""

from __future__ import annotations

from fractions import Fraction

#: A float sweep value may differ from the exact rational by this much
#: (absolute).  Tape registers stay in [0, 1] and each lane does a few
#: hundred multiply/add steps, so double rounding error stays many
#: orders of magnitude below it.
FLOAT_TOLERANCE = 1e-9


class Checker:
    """Counts checks and keeps the first mismatches."""

    def __init__(self, keep: int = 5):
        self.checked = 0
        self.failures: list[str] = []
        self.failed = 0
        self._keep = keep

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def expect(self, condition: bool, context: str) -> bool:
        self.checked += 1
        if not condition:
            self.failed += 1
            if len(self.failures) < self._keep:
                self.failures.append(context)
        return condition

    def exact(self, got, expected: Fraction, context: str) -> bool:
        """``got`` is the wire form ``"num/den"``; it must be
        bit-identical to the library's rational."""
        return self.expect(got == str(Fraction(expected)),
                           f"{context}: got {got!r}, expected "
                           f"{Fraction(expected)}")

    def close(self, got, expected: Fraction, context: str,
              tolerance: float = FLOAT_TOLERANCE) -> bool:
        """A float answer within ``tolerance`` of the exact value."""
        good = (isinstance(got, (int, float))
                and not isinstance(got, bool)
                and abs(got - float(expected)) <= tolerance)
        return self.expect(good, f"{context}: got {got!r}, expected "
                                 f"{float(expected)!r} ± {tolerance}")

    def contains(self, low, high, expected: Fraction,
                 context: str) -> bool:
        """An estimate's interval ``[low, high]`` holds the exact
        value."""
        good = Fraction(low) <= expected <= Fraction(high)
        return self.expect(good, f"{context}: [{low}, {high}] misses "
                                 f"{expected}")

    def satisfies(self, formula, world: dict, context: str) -> bool:
        """A ``{var: bool}`` world makes the lineage CNF true."""
        true_vars = [var for var, value in world.items() if value]
        return self.expect(bool(formula.evaluate(true_vars)),
                           f"{context}: world violates the lineage")
