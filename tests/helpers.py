"""Shared corpora and independent oracles used across the test modules."""

import itertools
from functools import lru_cache

from hypothesis import assume, strategies as st

from ghwlab.codes import TraceCode, derive_params
from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.fields import build_field
from ghwlab.hierarchy import FormulaParams
from ghwlab import linalg
from ghwlab.oracle import ghw_bruteforce
from ghwlab.subspaces import SubspaceIter, gaussian_binomial

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


def nullspace(ctx, rows, ncols):
    """Basis of the right null space of the given rows, over GF(q)."""
    reduced, pivots = linalg.rref(ctx, rows)
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


def span_elements(ctx, elements):
    """All GF(q)-combinations of the given F_Q elements (q^len of them)."""
    scalars = ctx.subfield_q
    out = [0]
    for b in elements:
        mults = [ctx.mul(c, b) for c in scalars]
        out = [ctx.add(e, mb) for mb in mults for e in out]
    return out


def free_positions(pattern, d):
    """Row-major list of the free (row, col) slots for a pivot pattern."""
    pivot_set = set(pattern)
    positions = []
    for i, pc in enumerate(pattern):
        for j in range(pc + 1, d):
            if j not in pivot_set:
                positions.append((i, j))
    return positions


def odometer_pattern(scalars, d, pattern):
    """A pivot pattern's RREF bases, free slots filled odometer-style.

    One mutable base matrix; the free slots are scanned row-major and the
    last one cycles fastest.  The order reference for
    ``SubspaceIter.iter_pattern``, whose order fixes the reported witnesses.
    """
    base = [[0] * d for _ in pattern]
    for i, pc in enumerate(pattern):
        base[i][pc] = 1
    positions = free_positions(pattern, d)
    for assignment in itertools.product(scalars, repeat=len(positions)):
        for (i, j), v in zip(positions, assignment):
            base[i][j] = v
        yield tuple(tuple(row) for row in base)


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


@st.composite
def small_sweeps(draw):
    """A random small e == t code over a prime field and a dimension r whose
    sweep holds at most 3000 subspaces."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(min_value=1, max_value=4))
    t = draw(st.integers(min_value=1, max_value=2))
    assume(3 <= p ** m <= 256 and (p ** m - 1) % t == 0)
    a = draw(st.integers(min_value=1, max_value=p ** m - 2))
    params = derive_params(p, 1, m, t, t, a)
    assume(params.assumptions.all_ok)
    r = draw(st.integers(min_value=1, max_value=params.k))
    assume(gaussian_binomial(params.k, r, params.q) <= 3000)
    return TraceCode(params), r


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
        null = nullspace(field, rows, self.t * m)
        dual = [linalg.vector_from_coords(field, self.t, v) for v in null]
        if len(dual) != self.t * m - len(basis):
            raise RuntimeError("dual space has unexpected dimension")
        return dual


def nullspace_dual_count(code, basis):
    """Definitional dual recount of the common zeros of a message subspace.

    For each slot h, solve Tr(b_h * y) = 0 over the basis as a null space
    in GF(q)^m, enumerate it, and count the nonzero y with -y in class 0;
    the zero count is N/(t*delta) times the total.  The reference for the
    dual sweep's per-row mask kernel; requires e == t.
    """
    field, params, m = code.field, code.params, code.field.m
    trace_q = field.trace_table(field.s)
    gamma_pows = [field.exp[i % (field.Q - 1)] for i in range(m)]
    total = 0
    for h in range(params.t):
        rows = [[trace_q[field.mul(b[h], g)] if b[h] else 0 for g in gamma_pows]
                for b in basis]
        null = nullspace(field, rows, m)
        for y in span_elements(field, [field.element_from_coords(v) for v in null]):
            if y and field.log[field.neg(y)] % params.N == 0:
                total += 1
    scaled, denom = params.N * total, params.t * params.delta
    assert scaled % denom == 0, (total, params.N, denom)
    return scaled // denom
