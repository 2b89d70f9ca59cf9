"""Shared corpora and independent oracles used across the test modules."""

from functools import lru_cache

from ghwlab.codes import TraceCode, derive_params
from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.fields import build_field
from ghwlab.hierarchy import FormulaParams
from ghwlab import linalg
from ghwlab.linalg import span_elements
from ghwlab.oracle import ghw_bruteforce
from ghwlab.subspaces import SubspaceIter

# (q, m, N) regimes satisfying every closed-form hypothesis, m <= 6.
# Used by the operation-monotonicity and optimizer-equivalence sweeps.
REGIME_CORPUS = [
    (2, 6, 3),
    (3, 4, 5),
    (3, 6, 4),
    (3, 6, 7),
    (3, 6, 14),
    (4, 6, 5),
    (4, 6, 13),
    (5, 2, 3),
    (5, 4, 13),
    (7, 2, 4),
    (8, 2, 3),
    (9, 2, 5),
]

# Larger-m regimes where the cross-shift inverse has non-vacuous cases.
EXTENDED_REGIMES = REGIME_CORPUS + [(2, 10, 3), (2, 10, 11)]

# Fields for the character-identity checks: (p, degree).
FIELD_CORPUS = [(5, 2), (7, 2), (2, 6), (3, 4), (5, 4), (3, 6), (2, 10), (2, 12)]

# Hypothesis-satisfying (field key, N) pairs for period integrality.
SEMIPRIMITIVE_PAIRS = [
    ((5, 2), 3),
    ((7, 2), 4),
    ((2, 6), 3),
    ((3, 4), 5),
    ((5, 4), 13),
    ((3, 6), 4),
    ((3, 6), 7),
    ((3, 6), 14),
    ((2, 10), 3),
    ((2, 10), 11),
    ((2, 12), 5),
    ((2, 12), 13),
]


@lru_cache(maxsize=None)
def field(p, degree, s=1):
    return build_field(p, degree, subfield_degree=s)


@lru_cache(maxsize=None)
def formula_params(q, m, N):
    return FormulaParams(q, m, N)


@lru_cache(maxsize=None)
def code(key):
    configs = {
        "example1": (7, 1, 2, 2, 2, 6, (0, 1)),
        "example2": (7, 1, 2, 2, 2, 2, (0, 1)),
        "irreducible21": (2, 1, 6, 1, 1, 3, (0,)),
        "simplex": (2, 1, 2, 1, 1, 1, (0,)),
    }
    return TraceCode(derive_params(*configs[key]))


@lru_cache(maxsize=None)
def brute_hierarchy(key):
    c = code(key)
    return tuple(ghw_bruteforce(c, r).d_r for r in range(1, c.k + 1))


def exhaustive_class_intersections(ctx, N, l):
    """Max |L ∩ class_i| over all l-dim GF(q)-subspaces L of F_Q, per class.

    Independent oracle: enumerates every subspace via RREF bases in
    GF(q)^m coordinates and counts span members per cyclotomy class.
    """
    cyc = CyclotomyCtx(ctx, N)
    log = ctx.log
    best = [0] * N
    for rows in SubspaceIter(ctx, ctx.m, l):
        elems = [ctx.element_from_coords(row) for row in rows]
        counts = [0] * N
        for x in span_elements(ctx, elems):
            if x:
                counts[log[x] % N] += 1
        for i in range(N):
            if counts[i] > best[i]:
                best[i] = counts[i]
    return best


def frobenius_trace(ctx, x, sub_degree, top_degree=None):
    """Definitional relative trace from GF(p^top_degree) onto GF(p^sub_degree).

    The sum x + x^(p^sub) + x^(p^(2 sub)) + ... over top/sub conjugates;
    the reference for ``FieldCtx.trace_table``.  ``top_degree`` defaults to
    the whole field; x must lie in GF(p^top_degree).
    """
    top = ctx.degree if top_degree is None else top_degree
    assert top % sub_degree == 0 and ctx.frobenius(x, top) == x
    acc = 0
    for i in range(top // sub_degree):
        acc = ctx.add(acc, ctx.frobenius(x, sub_degree * i))
    return acc


class DualContext:
    """The trace bilinear form on F_Q^t and duals of message subspaces."""

    def __init__(self, field, t: int):
        self.field = field
        self.t = t

    def pair(self, xbar, ybar):
        """Tr_{Q->q} of the dot product; values lie in GF(q)."""
        field = self.field
        acc = 0
        for x, y in zip(xbar, ybar):
            if x and y:
                acc = field.add(acc, field.mul(x, y))
        return field.trace_table(field.s)[acc]

    def dual_space(self, basis):
        """Basis of the orthogonal complement; dimension is t*m - len(basis)."""
        field = self.field
        if not linalg.vectors_independent(field, basis):
            raise ValueError("basis vectors are GF(q)-dependent")
        m = field.m
        trace_q = field.trace_table(field.s)
        mul = field.mul
        gamma_pows = [field.exp[i % (field.Q - 1)] for i in range(m)]
        rows = []
        for b in basis:
            row = []
            for slot in range(self.t):
                bh = b[slot]
                row.extend(trace_q[mul(bh, g)] if bh else 0 for g in gamma_pows)
            rows.append(row)
        null = linalg.nullspace(field, rows, self.t * m)
        dual = [linalg.vector_from_coords(field, self.t, v) for v in null]
        if len(dual) != self.t * m - len(basis):
            raise RuntimeError("dual space has unexpected dimension")
        return dual
