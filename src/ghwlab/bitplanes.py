"""Value-plane words for the row-mask kernel (``oracle._RowMasks``).

A word over GF(q) of width w is held as its value planes: (v, mask of the
positions holding v) for each value v that occurs, in value order
(bitslicing; Biham, FSE 1997).  Adding c * M[f] ORs W[x] & P[y] into the
plane of x + c*y, and the bucket pass of the last free column g ORs
W[x] & G[y] into the bucket of root[y][x], the c with x + c*y = 0.  Each
costs up to q*q big-int ANDs, where a list of w indices costs about w
Python steps, so the kernel takes planes only where q is small next to w.
It imports this module on the first row it builds on planes, so a process
that never does (``verify``, a sweep over a large q) does not load it.
"""

import functools

from .oracle import _prefixes


def row_masks(kernel, pivot, heads, last):
    """``kernel.row_masks(pivot, heads + [last])`` on value planes: the same
    masks in the same order.  Every row's planes are built on first use."""
    q, add, mul, root, full = kernel.q, kernel.add, kernel.mul, kernel.root, kernel.full
    if kernel.planes is None:
        kernel.planes = [_value_planes(row) for row in kernel.rows]
    planes = kernel.planes
    live = [(root[y], gy) for y, gy in planes[last] if y]
    g0 = dict(planes[last]).get(0, 0)
    # steps[h][c] pairs mul[c][y] with plane y of M[heads[h]]; None for c = 0
    steps = [[[(mul[c][y], py) for y, py in planes[f]] if c else None for c in range(q)]
             for f in heads]
    masks = []
    for word in _prefixes(planes[pivot], steps, functools.partial(_add, q, add)):
        bucket = [0] * q
        for x, wx in word:
            for rx, gy in live:
                if m := wx & gy:
                    bucket[rx[x]] |= m
        zz = 0 if word[0][0] else word[0][1] & g0  # W[0] & G[0]
        masks.extend([full ^ (zz | b) for b in bucket])
    return masks


def _value_planes(row):
    """(v, bitmask of the positions holding v) for each value v of ``row``,
    each mask from a bitmap string, with no int per position."""
    rev = row[::-1]
    return [(v, int("".join(["1" if x == v else "0" for x in rev]), 2)) for v in sorted(set(row))]


def _add(q, add, word, step):
    """``word + c * M[f]``: plane x of the word meets plane y of M[f] at the
    value x + c*y, ``step`` holding the pairs (mul[c][y], plane y)."""
    new = [0] * q
    for x, wx in word:
        row = add[x]
        for cy, py in step:
            if m := wx & py:
                new[row[cy]] |= m
    return [(v, m) for v, m in enumerate(new) if m]
