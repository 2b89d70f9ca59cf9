"""Canonical enumeration of GF(q)-subspaces via reduced-row-echelon bases.

Every r-dimensional subspace of GF(q)^d has exactly one RREF basis matrix,
so enumerating those matrices visits each subspace once.  Pivot-column
patterns are generated in colexicographic order and the free entries are
filled odometer-style (row-major scan, last position cycling fastest); the
order is fixed so that reported witnesses are reproducible.
"""

from __future__ import annotations

import itertools


def gaussian_binomial(d: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^d, exactly."""
    if r < 0 or r > d:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    count, rem = divmod(num, den)
    if rem:
        raise RuntimeError("Gaussian binomial did not divide evenly")
    return count


def pivot_patterns(d: int, r: int):
    """All r-subsets of range(d) in colexicographic order."""
    if r == 0:
        yield ()
        return
    for top in range(r - 1, d):
        for rest in pivot_patterns(top, r - 1):
            yield rest + (top,)


def free_positions(pattern, d: int):
    """Row-major list of the free (row, col) slots for a pivot pattern."""
    pivot_set = set(pattern)
    positions = []
    for i, pc in enumerate(pattern):
        for j in range(pc + 1, d):
            if j not in pivot_set:
                positions.append((i, j))
    return positions


class SubspaceIter:
    """Iterator over the r-dimensional GF(q)-subspaces of GF(q)^d.

    Matrix entries are subfield element codes of the supplied field context.
    Yields each subspace exactly once, as a tuple of r basis rows (each a
    tuple of d codes, in RREF).  The enumeration is partitionable by pivot
    pattern: the per-pattern streams are independent, so reductions over the
    full stream may be computed patternwise in any scheduling order.
    """

    def __init__(self, ctx, d: int, r: int):
        if not 0 <= r <= d:
            raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
        self.ctx = ctx
        self.d = d
        self.r = r
        self.scalars = ctx.subfield_q

    def count(self) -> int:
        return gaussian_binomial(self.d, self.r, len(self.scalars))

    def patterns(self):
        return pivot_patterns(self.d, self.r)

    def iter_pattern(self, pattern):
        d, r = self.d, self.r
        base = [[0] * d for _ in range(r)]
        for i, pc in enumerate(pattern):
            base[i][pc] = 1
        positions = free_positions(pattern, d)
        if not positions:
            yield tuple(tuple(row) for row in base)
            return
        for assignment in itertools.product(self.scalars, repeat=len(positions)):
            for (i, j), v in zip(positions, assignment):
                base[i][j] = v
            yield tuple(tuple(row) for row in base)

    def __iter__(self):
        for pattern in self.patterns():
            yield from self.iter_pattern(pattern)
