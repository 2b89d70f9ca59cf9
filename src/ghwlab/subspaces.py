"""Canonical enumeration of GF(q)-subspaces via reduced-row-echelon bases.

Every r-dimensional subspace of GF(q)^d has exactly one RREF basis matrix,
so enumerating those matrices visits each subspace once.  Pivot-column
patterns are generated in colexicographic order.  Within a pattern each row
chooses its free entries independently of the others, so the pattern's
subspaces are the Cartesian product of the per-row choices (last row, and
within a row the last column, cycling fastest); the order is fixed so that
reported witnesses are reproducible.
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
        self.d = d
        self.r = r
        self.scalars = ctx.subfield_q

    def count(self) -> int:
        return gaussian_binomial(self.d, self.r, len(self.scalars))

    def patterns(self):
        return pivot_patterns(self.d, self.r)

    def row_choices(self, pattern):
        """Every value each RREF row of ``pattern`` takes, one list per row.

        A row is 1 at its pivot, any scalar at a later non-pivot column and 0
        elsewhere; a row's list is the product of those per-column options.
        """
        pivots = set(pattern)
        choices = []
        for pc in pattern:
            options = [(1,) if j == pc else self.scalars if j > pc and j not in pivots else (0,)
                       for j in range(self.d)]
            choices.append(list(itertools.product(*options)))
        return choices

    def iter_pattern(self, pattern):
        """The pattern's subspaces: one row from each row's choices."""
        return itertools.product(*self.row_choices(pattern))

    def __iter__(self):
        for pattern in self.patterns():
            yield from self.iter_pattern(pattern)
