"""GF(q)-linear algebra on vectors of subfield element codes.

Vectors are sequences of element codes that all lie in the GF(q) subfield of
one FieldCtx; the field context supplies the arithmetic, so nothing here
depends on q being prime.  A vector over F_Q is viewed in GF(q)^(t*m) through
``FieldCtx.trace_coords`` of each entry, and read back from coordinates in the
basis (1, gamma, ..., gamma^(m-1)) by ``FieldCtx.element_from_coords``.
"""

from __future__ import annotations


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


def vectors_independent(ctx, vecs) -> bool:
    """Whether vectors over F_Q are GF(q)-independent: the rank of their trace
    coordinates, a GF(q)-linear bijection onto GF(q)^(t*m), is their number."""
    rows = [[c for x in v for c in ctx.trace_coords(x)] for v in vecs]
    return len(rref(ctx, rows)[0]) == len(rows)
