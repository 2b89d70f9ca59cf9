"""Cyclotomy classes and Gauss periods held exactly as trace counts.

The multiplicative group of F_Q splits into N classes: the i-th class is
gamma^i times the subgroup generated by gamma^N.  The Gauss period at a in
class i sums zeta_p^Tr(z), Tr the absolute trace, over z in class i; it is
held as the counts c_k of the class's elements at trace k, found by direct
enumeration so that they double as an oracle for the closed form.  When
GF(p)^* lies in class 0, c_1 = ... = c_(p-1) and the period is c_0 - c_1.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from operator import getitem

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


class CyclotomyCtx:
    """Partition of F_Q^* into N classes, with their Gauss periods."""

    def __init__(self, field: FieldCtx, N: int):
        if N < 1 or (field.Q - 1) % N != 0:
            raise ValueError(f"N={N} must divide Q-1={field.Q - 1}")
        self.field = field
        self.N = N
        self.class_size = (field.Q - 1) // N
        self._table = None
        self._periods = None
        self._by_code = None

    def __repr__(self):
        return f"CyclotomyCtx(Q={self.field.Q}, N={self.N})"

    def class_elements(self, i: int) -> list:
        """All elements of the i-th class, 0 <= i < N, in exponent order."""
        return self.field.exp[i::self.N]

    def period_table(self) -> tuple:
        """The Gauss periods as trace counts; cached after the first call.

        Row i < N is a ``Counter`` of the absolute traces of class i, counted
        from the class's own slice of ``exp`` (at N = 1 from ``exp`` itself,
        not a copy), and holds only the traces that occur.  Row N is the
        argument 0: class_size elements at trace 0.
        """
        if self._table is None:
            trace, exp = self.field.trace_table(1), self.field.exp
            classes = [exp] if self.N == 1 else map(self.class_elements, range(self.N))
            rows = [Counter(map(getitem, repeat(trace), c)) for c in classes]
            rows.append(Counter({0: self.class_size}))
            self._table = tuple(rows)
        return self._table

    def periods(self) -> tuple:
        """Each ``period_table`` row as the int c_0 - c_1, cached, once the
        row is checked to have c_1 = ... = c_(p-1), else RuntimeError.  That
        holds when GF(p)^* lies in class 0: scaling by c in GF(p)^* maps
        each class onto itself and trace k to c*k."""
        if self._periods is None:
            p, periods = self.field.p, []
            for i, row in enumerate(self.period_table()):
                counts = [c for k, c in row.items() if k and c]  # the nonzero traces that occur
                if counts and (len(counts) < p - 1 or min(counts) != max(counts)):
                    raise RuntimeError(f"Gauss period {i} is not rational: "
                                       "its nonzero trace counts differ")
                periods.append(row[0] - (counts[0] if counts else 0))
            self._periods = tuple(periods)
        return self._periods

    def class_by_code(self) -> list:
        """The ``period_table`` row of every element, indexed by code:
        log[x] mod N, or N at 0.  Built on first use from a temporary lookup
        by log (0..N-1 repeated class-size times, then N at log[0] = -1).
        """
        if self._by_code is None:
            by_log = list(range(self.N)) * self.class_size
            by_log.append(self.N)
            self._by_code = list(map(by_log.__getitem__, self.field.log))
        return self._by_code
