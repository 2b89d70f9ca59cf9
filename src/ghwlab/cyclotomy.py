"""Cyclotomy classes, additive characters, and numeric Gauss periods.

The multiplicative group of F_Q splits into N classes: the i-th class is
gamma^i times the subgroup generated by gamma^N.  Gauss periods are computed
by direct summation of p-th roots of unity; no closed form is assumed, which
lets the numeric values double as an oracle for the closed-form machinery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .fields import FieldCtx


def semiprimitive_j(p: int, N: int):
    """Smallest j with p^j = -1 (mod N), or None if no power of p hits -1.

    Defined for N > 2 with gcd(p, N) = 1; the scan stops at the
    multiplicative order of p mod N.
    """
    if N <= 2:
        raise ValueError(f"semiprimitivity needs N > 2, got N={N}")
    if math.gcd(p, N) != 1:
        raise ValueError(f"gcd(p, N) must be 1, got p={p}, N={N}")
    target = N - 1
    cur = p % N
    j = 1
    while True:
        if cur == target:
            return j
        if cur == 1:
            return None
        cur = (cur * p) % N
        j += 1


@dataclass(frozen=True)
class GaussPeriodTable:
    """Numeric Gauss periods: values[i] is the period at argument gamma^i."""

    N: int
    class_size: int
    values: tuple


class CyclotomyCtx:
    """Partition of F_Q^* into N classes with O(1) membership lookup."""

    def __init__(self, field: FieldCtx, N: int):
        if N < 1 or (field.Q - 1) % N != 0:
            raise ValueError(f"N={N} must divide Q-1={field.Q - 1}")
        self.field = field
        self.N = N
        self.class_size = (field.Q - 1) // N
        self._table = None

    def __repr__(self):
        return f"CyclotomyCtx(Q={self.field.Q}, N={self.N})"

    def class_index(self, x) -> int:
        """Index i with x in the i-th class; zero is not in any class."""
        if x == 0:
            raise ValueError("0 belongs to no cyclotomy class")
        return self.field.log[x] % self.N

    def class_elements(self, i: int):
        """All elements of the i-th class, in exponent order."""
        exp = self.field.exp
        group = self.field.Q - 1
        return [exp[(i + k * self.N) % group] for k in range(self.class_size)]

    def gauss_period(self, arg) -> complex:
        """Sum of the canonical additive character over arg times class 0.

        Direct summation of p-th roots of unity.  The zero argument is
        allowed and gives the class size (every summand is 1), the reading
        that keeps the character-sum expressions consistent with integer
        counts.
        """
        field = self.field
        if arg == 0:
            return complex(self.class_size)
        p = field.p
        zetas = [cmath.exp(2j * cmath.pi * v / p) for v in range(p)]
        traces = field.trace_table(1)
        mul = field.mul
        total = 0j
        for x in self.class_elements(0):
            total += zetas[traces[mul(arg, x)]]
        return total

    def period_table(self) -> GaussPeriodTable:
        """Periods at gamma^0 .. gamma^(N-1); cached after the first call.

        Since the period at a depends only on the class of a, this table
        evaluates the period at every nonzero argument.
        """
        if self._table is None:
            exp = self.field.exp
            values = tuple(self.gauss_period(exp[i % (self.field.Q - 1)]) for i in range(self.N))
            self._table = GaussPeriodTable(self.N, self.class_size, values)
        return self._table
