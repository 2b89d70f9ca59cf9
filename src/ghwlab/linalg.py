"""GF(q) as small scalar tables, and GF(q)-linear algebra on vectors of
subfield element codes.

``rref`` and ``vectors_independent`` take element codes and the field
context, which supplies the arithmetic, so nothing here depends on q being
prime.  A vector over F_Q is viewed in GF(q)^(t*m) through
``FieldCtx.trace_coords`` of each entry, and read back from coordinates in
the basis (1, gamma, ..., gamma^(m-1)) by ``FieldCtx.element_from_coords``.
"""

from __future__ import annotations

import functools


class _Rows(dict):
    """q x q table whose row a is ``build(a)``, built on first use, so a
    large q with few operands (k=1 over GF(3^10)) never allocates q^2
    entries."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, a):
        row = self[a] = self.build(a)
        return row


class ScalarTable:
    """GF(q) on scalar indices: index i stands for ``subfield_q[i]`` (0 is
    zero, 1 is one), and ``index`` maps a code to its index, at q = Q the
    identity ``range(Q)``.  ``add[a][b]`` and ``mul[a][b]`` index the sum and
    product, ``root[g][x]`` the c with x + c*g = 0: the ``mul`` row of -1/g,
    one ``inv`` and ``neg`` per g.  Rows are built from ``FieldCtx`` on first use."""

    def __init__(self, field):
        self.field = field
        self.scalars = scalars = field.subfield_q
        self.q = len(scalars)
        self.index = scalars if self.q == field.Q else {c: i for i, c in enumerate(scalars)}
        self.add = _Rows(functools.partial(self._op_row, field.add))
        self.mul = _Rows(functools.partial(self._op_row, field.mul))
        self.root = _Rows(self._root_row)

    def _op_row(self, op, a):
        x, index = self.scalars[a], self.index
        return [index[op(x, b)] for b in self.scalars]

    def _root_row(self, g):
        return self.mul[self.index[self.field.neg(self.field.inv(self.scalars[g]))]]

    def indices(self, codes) -> list:
        """GF(q) codes as indices; at q = Q a copy of the codes, not of
        ``range(Q)``'s fresh int for each code above 256."""
        index = self.index
        return list(codes) if index is self.scalars else [index[c] for c in codes]


def rref(ctx, rows):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ctx.inv(rows[r][c])
        rows[r] = [ctx.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [ctx.sub(rows[i][j], ctx.mul(f, rows[r][j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


# -- vectors in F_Q^t viewed as GF(q)-spaces -------------------------------

def vector_from_coords(ctx, t, coords) -> tuple:
    m = ctx.m
    return tuple(ctx.element_from_coords(coords[i * m:(i + 1) * m]) for i in range(t))


def pairing_matrix(ctx, slots) -> tuple:
    """Row h*m + j is Tr_{Q->q}(gamma^j * x) for each x of ``slots[h]``, the
    slot-h elements of w points of F_Q^t, so b = ``vector_from_coords(c)``
    pairs with point x to c . column = sum_h Tr_{Q->q}(b_h * x_h), the trace
    being GF(q)-linear.  Built per slot, column by column."""
    return tuple(row for slot in slots for row in zip(*map(ctx.trace_coords, slot)))


def vectors_independent(ctx, vecs) -> bool:
    """Whether vectors over F_Q are GF(q)-independent: the rank of their trace
    coordinates, a GF(q)-linear bijection onto GF(q)^(t*m), is their number."""
    rows = [[c for x in v for c in ctx.trace_coords(x)] for v in vecs]
    return len(rref(ctx, rows)[0]) == len(rows)
