"""Shared corpora and independent oracles used across the test modules."""

import cmath
import itertools
import math
from collections import Counter
from functools import lru_cache

from hypothesis import assume, strategies as st

from ghwlab.codes import HypothesisReport, TraceCode, derive_params
from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.fields import _poly_mulmod, build_field, prime_factors
from ghwlab.hierarchy import ClosedFormGate, FormulaParams, closed_form_dr
from ghwlab import linalg
from ghwlab.oracle import _RowMasks, _brute_scorer, _dual_scorer, ghw_bruteforce
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


def digit_add(ctx, a, b):
    """a + b digit by digit in base p: the reference for ``FieldCtx.add``."""
    p = ctx.p
    if p == 2:
        return a ^ b
    total = 0
    mult = 1
    while a or b:
        s = a % p + b % p
        if s >= p:
            s -= p
        total += s * mult
        a //= p
        b //= p
        mult *= p
    return total


def digit_neg(ctx, a):
    """-a digit by digit in base p: the reference for ``FieldCtx.neg``."""
    p = ctx.p
    if p == 2:
        return a
    total = 0
    mult = 1
    while a:
        d = a % p
        if d:
            total += (p - d) * mult
        a //= p
        mult *= p
    return total


def digit_loop_tables(p, d, modulus):
    """exp/log tables of gamma = x mod ``modulus``, one digit list per power.

    Walks gamma^k as a list of base-p digits, multiplies by x with a digit
    shift and a digit-by-digit reduction, and packs each power digit by
    digit.  The reference for ``fields._build_tables``.
    """
    def pack(digits):
        total = 0
        for digit in reversed(digits):
            total = total * p + digit
        return total

    Q = p**d
    group = Q - 1
    exp_table = [0] * group
    log_table = [-1] * Q
    cur = [0] * d
    cur[0] = 1
    for k in range(group):
        packed = pack(cur)
        if log_table[packed] != -1:
            raise RuntimeError("exp table collision: modulus is not primitive")
        exp_table[k] = packed
        log_table[packed] = k
        if d == 1:
            cur[0] = (cur[0] * -modulus[0]) % p
        else:
            carry = cur[d - 1]
            for i in range(d - 1, 0, -1):
                cur[i] = cur[i - 1]
            cur[0] = 0
            if carry:
                for i in range(d):
                    cur[i] = (cur[i] - carry * modulus[i]) % p
    if pack(cur) != 1:
        raise RuntimeError("primitive element order check failed")
    return exp_table, log_table


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


def span_vectors(ctx, vecs):
    """All GF(q)-combinations of the given vectors over F_Q.

    The last vector's coefficient changes slowest, the scalars in
    ``subfield_q`` order.
    """
    add, mul = ctx.add, ctx.mul
    t = len(vecs[0]) if vecs else 0
    out = [(0,) * t]
    for b in vecs:
        mults = [tuple([mul(c, x) for x in b]) for c in ctx.subfield_q]
        out = [tuple(map(add, e, mb)) for mb in mults for e in out]
    return out


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


def all_subspaces(it):
    """Every subspace of a ``SubspaceIter``, pattern by pattern."""
    for pattern in it.patterns():
        yield from it.iter_pattern(pattern)


def subspace_count(it) -> int:
    return gaussian_binomial(it.d, it.r, len(it.scalars))


def order(ctx, a):
    """Multiplicative order of a nonzero element."""
    if a == 0:
        raise ZeroDivisionError("order of zero")
    group = ctx.Q - 1
    return group // math.gcd(group, ctx.log[a])


def x_has_full_order_by_powers(p, degree, modulus):
    """Whether x has order p^degree - 1 modulo ``modulus``, each power of x
    by right-to-left square-and-multiply with general products: the
    reference for the ladder in ``fields._x_has_full_order``."""

    one = [1] + [0] * (degree - 1)

    def power(a, e):
        result, base = one, list(a)
        while e:
            if e & 1:
                result = _poly_mulmod(result, base, modulus, p)
            base = _poly_mulmod(base, base, modulus, p)
            e >>= 1
        return result

    group = p**degree - 1
    x = [0] * degree
    if degree == 1:
        x[0] = (-modulus[0]) % p
    else:
        x[1] = 1
    if power(x, group) != one:
        return False
    return all(power(x, group // ell) != one for ell in prime_factors(group))


def class_index(cyc, x) -> int:
    """Index i with x in the i-th class; zero is not in any class."""
    if x == 0:
        raise ValueError("0 belongs to no cyclotomy class")
    return cyc.field.log[x] % cyc.N


@lru_cache(maxsize=None)
def field(p, degree, s=1):
    return build_field(p, degree, subfield_degree=s)


@lru_cache(maxsize=None)
def formula_params(q, m, N):
    """The regime (q, m, N), asserted to satisfy every closed-form hypothesis."""
    p, = prime_factors(q)
    s = next(s for s in itertools.count(1) if p**s == q)
    assert HypothesisReport.of(p, s, m, N, 1, 1).all_hold, (q, m, N)
    return FormulaParams(q, m, N)


def closed_form_hierarchy(params):
    """d_1, ..., d_k by the closed form, in the regime the code's gate reads."""
    fp = ClosedFormGate.of(params).require()
    return [closed_form_dr(params, fp, r)[0] for r in range(1, params.k + 1)]


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
    for rows in all_subspaces(SubspaceIter(ctx, ctx.m, l)):
        elems = [ctx.element_from_coords(row) for row in rows]
        counts = [0] * N
        for x in span_elements(ctx, elems):
            if x:
                counts[log[x] % N] += 1
        for i in range(N):
            if counts[i] > best[i]:
                best[i] = counts[i]
    return best


def power(ctx, x, k):
    """x^k, k >= 0, by square and multiply through ``mul`` alone: the
    reference for powers, sharing no exponent formula with ``src``, which
    reads the q-conjugates of gamma^k off the exponents k*q^i mod (Q-1)."""
    acc = 1
    for bit in bin(k)[2:]:
        acc = ctx.mul(acc, acc)
        if bit == "1":
            acc = ctx.mul(acc, x)
    return acc


def frobenius(ctx, x, k=1):
    """x^(p^k): k times raised to the p-th power by repeated ``mul``."""
    for _ in range(k):
        x = power(ctx, x, ctx.p)
    return x


def q_orbit(ctx, x) -> list:
    """The orbit of x under x -> x^q, by ``frobenius``: its size is the
    degree of x over GF(q)."""
    orbit = [x]
    cur = frobenius(ctx, x, ctx.s)
    while cur != x:
        orbit.append(cur)
        cur = frobenius(ctx, cur, ctx.s)
    return orbit


def frobenius_trace(ctx, x, sub_degree, top_degree=None):
    """Definitional relative trace from GF(p^top_degree) onto GF(p^sub_degree).

    The sum x + x^(p^sub) + x^(p^(2 sub)) + ... over top/sub conjugates,
    each the last raised to the p^sub-th power by ``frobenius``; the
    reference for ``FieldCtx.trace_table``.  ``top_degree`` defaults to
    the whole field; x must lie in GF(p^top_degree).
    """
    top = ctx.degree if top_degree is None else top_degree
    assert top % sub_degree == 0 and frobenius(ctx, x, top) == x
    acc, cur = 0, x
    for _ in range(top // sub_degree):
        acc = ctx.add(acc, cur)
        cur = frobenius(ctx, cur, sub_degree)
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


def random_basis(code, r, rng):
    """r GF(q)-independent random messages, drawn the way ``verify`` draws."""
    basis = []
    while len(basis) < r:
        cand = tuple(rng.randrange(code.params.Q) for _ in range(code.t))
        if any(cand) and linalg.vectors_independent(code.field, basis + [cand]):
            basis.append(cand)
    return basis


def member_character_sum_count(code, basis):
    """Character-sum count with every argument computed from its member.

    Enumerates the q^r member vectors b of the subspace and adds, for each
    b and h = 1..t, the trace counts of the Gauss period at gamma^(a*h) *
    sum_j b_j beta^(delta_j*h): the ``period_table`` row at the argument's
    log, or class_size counts at trace 0 for the argument 0.  The totals at
    the nonzero traces must agree, and N*(T_0 - T_1)/(t*delta*q^r) must be
    an integer, which is returned.  The reference for
    ``character_sum_count``, which counts rows, not members.
    """
    params = code.params
    field = code.field
    table = code.cyclotomy.period_table()
    group = params.Q - 1
    exp, log = field.exp, field.log
    mul, add = field.mul, field.add
    t = params.t
    step = group // params.e
    g_pows = [exp[(params.a * h) % group] for h in range(1, t + 1)]
    beta_pows = [
        [exp[(step * params.deltas[j] * h) % group] for j in range(t)]
        for h in range(1, t + 1)
    ]
    at_zero = {0: code.cyclotomy.class_size}
    totals = Counter()
    for b in span_vectors(field, list(basis)):
        for h in range(t):
            acc = 0
            for j in range(t):
                if b[j]:
                    acc = add(acc, mul(b[j], beta_pows[h][j]))
            arg = mul(g_pows[h], acc)
            totals.update(table[log[arg] % params.N] if arg else at_zero)
    assert len({totals[k] for k in range(1, field.p)}) == 1, totals
    count, rem = divmod(params.N * (totals[0] - totals[1]),
                        params.t * params.delta * params.q ** len(basis))
    assert rem == 0, (totals, basis)
    return count


def mul_gauss_period(cyc, arg) -> Counter:
    """Trace counts of the Gauss period at ``arg``, with one field product
    per class-0 element: the absolute traces of arg*z, z in
    ``class_elements(0)``, and class_size at trace 0 for arg = 0.  The
    reference for the rows of ``CyclotomyCtx.period_table``."""
    field = cyc.field
    if arg == 0:
        return Counter({0: cyc.class_size})
    traces = field.trace_table(1)
    return Counter(traces[field.mul(arg, z)] for z in cyc.class_elements(0))


def period_value(row, p) -> complex:
    """The Gauss period sum_k row[k] * zeta_p^k of a row of trace counts."""
    return sum(c * cmath.exp(2j * cmath.pi * k / p) for k, c in row.items())


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


def fq_codeword(code, xbar) -> tuple:
    """Word of a message with one F_Q product and one F_Q sum per position
    and slot, the trace taken once per position: coordinate i is
    Tr_{Q->q}(sum_j x_j gamma^(a_j*i)) as written.  The reference for
    ``TraceCode.codeword``, which adds the slots' traces in GF(q)."""
    field = code.field
    trace, exp, group = field.trace_table(field.s), field.exp, field.Q - 1
    word = []
    for i in range(1, code.n + 1):
        acc = 0
        for xj, aj in zip(xbar, code.params.a_list):
            if xj:
                acc = field.add(acc, field.mul(xj, exp[aj * i % group]))
        word.append(trace[acc])
    return tuple(word)


# -- per-row mask references for the sweep kernel ----------------------------

def brute_row_mask(code):
    """Support bitmask of one message row's codeword, the word built as a
    combination of generator rows one coefficient at a time: the per-row
    reference for the brute sweep's kernel."""
    table = linalg.ScalarTable(code.field)
    index, add, mul = table.index, table.add, table.mul
    gen = [table.indices(word) for word in code.generator_matrix()]
    bits = [1 << i for i in range(code.n)]

    def row_mask(row):
        word = None
        for coef, g in zip(row, gen):
            if coef:
                if coef != 1:
                    scale = mul[index[coef]]
                    g = [scale[x] for x in g]
                word = g if word is None else [add[w][x] for w, x in zip(word, g)]
        return sum(b for b, w in zip(bits, word) if w)

    return row_mask


def dual_row_mask(code):
    """Bitmask of the (slot, target) pairs one message row marks: bit
    (h, y), y in -C_0, when Tr_{Q->q}(b_h * y) != 0, with b_h assembled by
    ``element_from_coords`` and one big-field product per target: the
    per-row reference for the dual sweep's kernel, whose C_0 points it
    negates on purpose, an independent route to the same masks."""
    field, t, m = code.field, code.t, code.field.m
    trace_q, mul = field.trace_table(field.s), field.mul
    targets = [field.neg(x) for x in code.cyclotomy.class_elements(0)]
    slot_bits = [[1 << (h * len(targets) + i) for i in range(len(targets))]
                 for h in range(t)]

    def row_mask(row):
        mask = 0
        for h, bits in enumerate(slot_bits):
            bh = field.element_from_coords(row[h * m:(h + 1) * m])
            if bh:
                mask |= sum(b for b, y in zip(bits, targets) if trace_q[mul(bh, y)])
        return mask

    return row_mask


REFERENCE_ROW_MASKS = {"brute": brute_row_mask, "dual": dual_row_mask}
SCORERS = {"brute": _brute_scorer, "dual": _dual_scorer}


def kernel(code, mode, bitplanes=None):
    """The sweep kernel on the brute or dual matrix of ``code``, with its
    words held as value planes or as index lists when ``bitplanes`` is
    given, else as the kernel chooses."""
    masks = _RowMasks(code.field, SCORERS[mode](code)[0])
    if bitplanes is not None:
        masks.bitplanes = bitplanes
    return masks


def kernel_mismatches(code, mode, dims, bitplanes=None):
    """Every (r, pattern, row) whose kernel zero sets differ from the
    complements of the per-row reference masks of its ``row_choices``, over
    the dimensions ``dims``."""
    masks = kernel(code, mode, bitplanes)
    row_masks, full = masks.row_masks, masks.full
    reference = REFERENCE_ROW_MASKS[mode](code)
    bad = []
    for r in dims:
        it = SubspaceIter(code.field, code.k, r)
        for pattern in it.patterns():
            columns, choices = it.row_columns(pattern), it.row_choices(pattern)
            for i, ((pc, free), rows) in enumerate(zip(columns, choices)):
                if row_masks(pc, free) != [full ^ reference(row) for row in rows]:
                    bad.append((r, pattern, i))
    return bad


def kernel_subspaces(code, mode, r):
    """Every r-dimensional subspace as (rows, masks): its RREF rows from
    ``iter_pattern`` beside the kernel's zero sets of those rows."""
    masks_of = kernel(code, mode)
    it = SubspaceIter(code.field, code.k, r)
    for pattern in it.patterns():
        masks = [masks_of.row_masks(pc, free) for pc, free in it.row_columns(pattern)]
        yield from zip(it.iter_pattern(pattern), itertools.product(*masks))
