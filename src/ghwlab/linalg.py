"""GF(q)-linear algebra on vectors of subfield element codes.

Vectors are sequences of element codes that all lie in the GF(q) subfield of
one FieldCtx; the field context supplies the arithmetic, so nothing here
depends on q being prime.
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


def rank(ctx, rows) -> int:
    return len(rref(ctx, rows)[0])


def is_independent(ctx, rows) -> bool:
    return rank(ctx, rows) == len(rows)


def nullspace(ctx, rows, ncols):
    """Basis of the right null space of the given rows, over GF(q)."""
    reduced, pivots = rref(ctx, rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = ctx.neg(reduced[i][free])
        basis.append(vec)
    return basis


class Echelon:
    """Incremental independence bookkeeping over GF(q)."""

    def __init__(self, ctx, ncols):
        self.ctx = ctx
        self.ncols = ncols
        self.rows = []   # kept in echelon form
        self.pivots = []

    def residue(self, vec):
        ctx = self.ctx
        vec = list(vec)
        for row, pc in zip(self.rows, self.pivots):
            if vec[pc] != 0:
                f = vec[pc]
                vec = [ctx.sub(vec[j], ctx.mul(f, row[j])) for j in range(self.ncols)]
        return vec

    def add(self, vec) -> bool:
        """Add vec if it enlarges the span; returns True when it did."""
        ctx = self.ctx
        res = self.residue(vec)
        pc = next((j for j, v in enumerate(res) if v != 0), None)
        if pc is None:
            return False
        inv = ctx.inv(res[pc])
        self.rows.append([ctx.mul(inv, v) for v in res])
        self.pivots.append(pc)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


# -- vectors in F_Q^t viewed as GF(q)-spaces -------------------------------

def vector_coords(ctx, vec) -> tuple:
    """Flatten a vector over F_Q into t*m GF(q)-coordinates."""
    out = []
    for x in vec:
        out.extend(ctx.coords_over_q(x))
    return tuple(out)


def vector_from_coords(ctx, t, coords) -> tuple:
    m = ctx.m
    return tuple(ctx.element_from_coords(coords[i * m:(i + 1) * m]) for i in range(t))


def vectors_independent(ctx, vecs) -> bool:
    return is_independent(ctx, [vector_coords(ctx, v) for v in vecs])


def span_elements(ctx, elements):
    """All GF(q)-combinations of the given F_Q elements (2^|span| order q^len)."""
    scalars = ctx.subfield_q
    out = [0]
    for b in elements:
        mults = [ctx.mul(c, b) for c in scalars]
        out = [ctx.add(e, mb) for mb in mults for e in out]
    return out


def span_vectors(ctx, vecs):
    """All GF(q)-combinations of the given vectors over F_Q."""
    scalars = ctx.subfield_q
    t = len(vecs[0]) if vecs else 0
    out = [tuple([0] * t)]
    for b in vecs:
        mults = [tuple(ctx.mul(c, x) for x in b) for c in scalars]
        out = [tuple(ctx.add(e[i], mb[i]) for i in range(t)) for mb in mults for e in out]
    return out
