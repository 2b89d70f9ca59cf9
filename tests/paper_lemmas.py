"""The paper's lemma machinery, kept as references for the shipped closed form.

``ghwlab.hierarchy`` goes straight to the winning profile and never runs the
argument that certifies it.  This module holds that argument in executable
form: the profile rewrites of the normalization lemma, the exhaustive
profile search (the reference for ``optimize_profile``), the subspaces that
attain the per-slot intersection maximum, the cyclic-code polynomials of a
trace code with the minimal polynomials they multiply, the coordinates of
an element in the GF(q)-basis (1, gamma, ..., gamma^(m-1)) through the
trace-dual basis, and the per-subspace dual recount of the common zeros.

Profiles are kept sorted nonincreasing; the rewrite operations are defined
on sorted profiles and re-sort their result (the objective is symmetric in
the entries).
"""

from dataclasses import dataclass, field as _dc_field

from ghwlab import linalg
from ghwlab.codes import HypothesisReport, require_e_equals_t
from ghwlab.fields import FieldCtx
from ghwlab.hierarchy import FormulaParams, profile_objective, rank_decomposition
from ghwlab.oracle import _dual_scorer

from helpers import frobenius, power, q_orbit


class OpConditionError(ValueError):
    """A profile rewrite was attempted outside its side conditions."""


# -- dimension profiles ------------------------------------------------------

def validate_profile(fp: FormulaParams, u) -> tuple:
    u = tuple(u)
    if any(not 0 <= x <= fp.m for x in u):
        raise ValueError(f"profile entries must lie in [0, {fp.m}]: {u}")
    if any(u[i] < u[i + 1] for i in range(len(u) - 1)):
        raise ValueError(f"profile must be sorted nonincreasing: {u}")
    return u


def enumerate_profiles(t: int, total: int, cap: int):
    """All nonincreasing t-tuples with entries in [0, cap] summing to total."""
    def rec(remaining, slots, bound):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        top = min(bound, remaining)
        for first in range(top, -1, -1):
            if first * slots < remaining:
                break
            for rest in rec(remaining - first, slots - 1, first):
                yield (first,) + rest
    return rec(total, t, cap)


def exhaustive_profile(fp: FormulaParams, t: int, r: int):
    """Maximize the profile objective over every profile summing to t*m - r.

    The reference for ``optimize_profile``: under the construction
    hypotheses the two agree on the maximum.
    """
    rank_decomposition(t, fp.m, r)  # rejects r outside 1..t*m
    best_u = None
    best_T = -1
    for u in enumerate_profiles(t, t * fp.m - r, fp.m):
        T = profile_objective(fp, u)
        if T > best_T:
            best_u, best_T = u, T
    return best_u, best_T


def _resorted(u, i, j, di, dj):
    new = list(u)
    new[i] += di
    new[j] += dj
    return tuple(sorted(new, reverse=True))


def _require(cond, message):
    if not cond:
        raise OpConditionError(message)


def shift_low(fp: FormulaParams, u, i: int, j: int):
    """Move one unit from slot j up to slot i, both sides staying <= m/2."""
    u = validate_profile(fp, u)
    _require(0 <= i < j < len(u), f"need indices i < j, got i={i}, j={j}")
    _require(u[i] + 1 <= fp.half, f"shift_low needs u[i]+1 <= m/2, got u[{i}]={u[i]}")
    _require(u[j] >= 1, f"shift_low needs u[j] >= 1, got u[{j}]={u[j]}")
    return _resorted(u, i, j, +1, -1)


def shift_cross(fp: FormulaParams, u, i: int, j: int):
    """Move one unit from a slot at or below m/2 to a slot at or above it.

    Raises the objective when u[i] - u[j] >= m/2 - v - 1 and lowers it when
    u[i] - u[j] <= m/2 - v - 2; both applications are legal.
    """
    u = validate_profile(fp, u)
    _require(0 <= i < j < len(u), f"need indices i < j, got i={i}, j={j}")
    _require(u[i] + 1 <= fp.m, f"shift_cross needs u[i]+1 <= m, got u[{i}]={u[i]}")
    _require(u[i] >= fp.half, f"shift_cross needs u[i] >= m/2, got u[{i}]={u[i]}")
    _require(u[j] <= fp.half, f"shift_cross needs u[j] <= m/2, got u[{j}]={u[j]}")
    _require(u[j] >= 1, f"shift_cross needs u[j] >= 1, got u[{j}]={u[j]}")
    return _resorted(u, i, j, +1, -1)


def unshift_cross(fp: FormulaParams, u, i: int, j: int):
    """Inverse of shift_cross: move one unit back from slot i to slot j."""
    u = validate_profile(fp, u)
    _require(0 <= i < j < len(u), f"need indices i < j, got i={i}, j={j}")
    _require(u[i] <= fp.m, f"unshift_cross needs u[i] <= m, got u[{i}]={u[i]}")
    _require(u[i] - 1 >= fp.half, f"unshift_cross needs u[i]-1 >= m/2, got u[{i}]={u[i]}")
    _require(u[j] + 1 <= fp.half, f"unshift_cross needs u[j]+1 <= m/2, got u[{j}]={u[j]}")
    _require(u[j] >= 0, f"unshift_cross needs u[j] >= 0, got u[{j}]={u[j]}")
    return _resorted(u, i, j, -1, +1)


def shift_high(fp: FormulaParams, u, i: int, j: int):
    """Move one unit from slot j up to slot i, both sides staying >= m/2."""
    u = validate_profile(fp, u)
    _require(0 <= i < j < len(u), f"need indices i < j, got i={i}, j={j}")
    _require(u[i] + 1 <= fp.m, f"shift_high needs u[i]+1 <= m, got u[{i}]={u[i]}")
    _require(u[j] - 1 >= fp.half, f"shift_high needs u[j]-1 >= m/2, got u[{j}]={u[j]}")
    return _resorted(u, i, j, +1, -1)


def split_half_pair(fp: FormulaParams, u):
    """Replace two entries equal to m/2 with one m and one 0."""
    u = validate_profile(fp, u)
    count = sum(1 for x in u if x == fp.half)
    _require(count >= 2, f"split_half_pair needs two entries equal to m/2={fp.half}, found {count}")
    new = list(u)
    new.remove(fp.half)
    new.remove(fp.half)
    new = [fp.m] + new + [0]
    return tuple(sorted(new, reverse=True))


# -- coordinates in the basis (1, gamma, ..., gamma^(m-1)) ---------------------

def dual_basis(field) -> tuple:
    """Trace-dual basis d of (1, gamma, ..., gamma^(m-1)): Tr(gamma^i d_j) = [i = j].

    Row j of the inverse of the Gram matrix G[i][k] = Tr(gamma^(i+k))
    holds the coordinates of d_j; G is symmetric, so
    Tr(gamma^i d_j) = (G^-1 G)[j][i].
    """
    m, group = field.m, field.Q - 1
    trace = field.trace_table(field.s)
    gram = [[trace[field.exp[(i + k) % group]] for k in range(m)]
            + [int(i == k) for k in range(m)] for i in range(m)]
    rows, _ = linalg.rref(field, gram)
    return tuple(field.element_from_coords(row[m:]) for row in rows)


def coords_over_q(field, x) -> tuple:
    """Coordinates of x in the GF(q)-basis (1, gamma, ..., gamma^(m-1)), the
    inverse of ``FieldCtx.element_from_coords``.

    Coordinate j is Tr_{Q->q}(x * d_j) for the trace-dual basis d.
    Returns m elements of the subfield GF(q), as element codes.
    """
    trace = field.trace_table(field.s)
    return tuple(trace[field.mul(x, d)] for d in dual_basis(field))


def vector_coords(field, vec) -> tuple:
    """Flatten a vector over F_Q into t*m GF(q)-coordinates, the inverse of
    ``linalg.vector_from_coords``."""
    return tuple(c for x in vec for c in coords_over_q(field, x))


# -- subspaces attaining the per-slot maximum ----------------------------------

def achieving_subspace(cyc, l: int, i: int):
    """Basis of an l-dimensional subspace meeting class i in the maximum.

    For l up to m/2 the subspace sits inside gamma^i times the half-degree
    subfield; beyond that, the half subfield is extended by deterministically
    chosen coset representatives (smallest element codes that keep the set
    independent) and the whole basis is scaled by gamma^i.
    """
    field = cyc.field
    assert HypothesisReport.of(field.p, field.s, field.m, cyc.N, 1, 1).all_hold, cyc
    fp = FormulaParams(field.q, field.m, cyc.N)
    if not 0 <= l <= field.m:
        raise ValueError(f"need 0 <= l <= m={field.m}, got {l}")
    if not 0 <= i < cyc.N:
        raise ValueError(f"class index {i} out of range [0, {cyc.N})")
    group = field.Q - 1
    half_deg = field.s * fp.half
    theta = field.exp[(group // (field.p**half_deg - 1)) % group]
    half_basis = [power(field, theta, k) for k in range(fp.half)]
    if l <= fp.half:
        basis = half_basis[:l]
    else:
        coords = [coords_over_q(field, b) for b in half_basis]
        basis = list(half_basis)
        candidate = 1
        while len(basis) < l:
            if candidate >= field.Q:
                raise RuntimeError("ran out of candidates extending the half subfield")
            cand = coords_over_q(field, candidate)
            if len(linalg.rref(field, coords + [cand])[0]) > len(coords):
                coords.append(cand)
                basis.append(candidate)
            candidate += 1
    gi = field.exp[i % group]
    return tuple(field.mul(gi, b) for b in basis)


# -- polynomials of the cyclic code ------------------------------------------

@dataclass(frozen=True)
class PolyOverFq:
    """Polynomial with coefficients in the GF(q) subfield, low degree first."""

    field: FieldCtx = _dc_field(repr=False, compare=False)
    coeffs: tuple = ()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def minimal_poly(field, x) -> PolyOverFq:
    """Monic minimal polynomial of a nonzero x over GF(q).

    Computed as the product over the q-conjugacy orbit, taken by repeated
    ``mul`` (``helpers.q_orbit``); every coefficient is verified to be fixed
    by y -> y^q.  The reference for ``codes._check_iii``, which reads
    degrees and equality off the q-cyclotomic cosets of the exponents.
    """
    if x == 0:
        raise ValueError("minimal_poly requires a nonzero element")
    coeffs = [1]
    for root in q_orbit(field, x):
        nroot = field.neg(root)
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            if c:
                nxt[i] = field.add(nxt[i], field.mul(c, nroot))
                nxt[i + 1] = field.add(nxt[i + 1], c)
        coeffs = nxt
    for c in coeffs:
        if frobenius(field, c, field.s) != c:
            raise RuntimeError("minimal polynomial coefficient escaped GF(q)")
    return PolyOverFq(field, tuple(coeffs))


def is_monic(poly: PolyOverFq) -> bool:
    return bool(poly.coeffs) and poly.coeffs[-1] == 1


def evaluate(poly: PolyOverFq, x):
    acc = 0
    for c in reversed(poly.coeffs):
        acc = poly.field.add(poly.field.mul(acc, x), c)
    return acc


def poly_mul(ctx, a, b):
    """Product of coefficient sequences (low degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return tuple(out)


def poly_divmod(ctx, a, b):
    """Quotient and remainder of coefficient sequences over the field."""
    a = list(a)
    db = len(b) - 1
    while b and b[-1] == 0:
        b = b[:-1]
        db -= 1
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = ctx.inv(b[-1])
    quot = [0] * max(len(a) - db, 1)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c == 0:
            continue
        factor = ctx.mul(c, inv_lead)
        quot[k - db] = factor
        for i, bi in enumerate(b):
            a[k - db + i] = ctx.add(a[k - db + i], ctx.neg(ctx.mul(factor, bi)))
    rem = a[:db] if db > 0 else [0]
    return tuple(quot), tuple(rem)


def parity_check_poly(code) -> PolyOverFq:
    """Product of the minimal polynomials of the gamma^(-a_i)."""
    field = code.field
    coeffs = (1,)
    for ai in code.params.a_list:
        root = field.inv(power(field, field.gamma, ai))
        coeffs = poly_mul(field, coeffs, minimal_poly(field, root).coeffs)
    return PolyOverFq(field, coeffs)


def generator_poly(code) -> PolyOverFq:
    """(x^n - 1) / parity_check_poly, the division being exact."""
    field = code.field
    xn1 = [0] * (code.n + 1)
    xn1[0] = field.neg(1)
    xn1[-1] = 1
    quot, rem = poly_divmod(field, tuple(xn1), parity_check_poly(code).coeffs)
    if any(rem):
        raise RuntimeError("parity-check polynomial does not divide x^n - 1")
    return PolyOverFq(field, quot)


# -- the dual recount of one subspace ------------------------------------------

def count_via_dual(code, basis) -> int:
    """Recount of the common zeros through the dual-space expression.

    For each slot h, intersect the dual of the message subspace with the
    h-th axis, then count the vectors whose negated h-component falls in
    class 0; the zero count is N/(t*delta) times the total.  Requires
    e == t.  It is the direct count of the subspace that ``TraceCode.relabel``
    maps onto this one: count_via_dual(code, [code.relabel(b) for b in S])
    == count_common_zeros(code, S) for every subspace S, and relabel is
    invertible, so the maxima over each dimension agree as well.  Scores
    through the dual sweep's own matrix and score, ``oracle._dual_scorer``,
    with each basis vector's word ``coords . M`` formed in field arithmetic
    and the pairs outside the union of the words' supports counted.
    """
    require_e_equals_t(code.params, "dual counting")
    field = code.field
    if not linalg.vectors_independent(field, basis):
        raise ValueError("basis vectors are GF(q)-dependent")
    matrix, score = _dual_scorer(code)
    union = 0
    for b in basis:
        word = [0] * len(matrix[0])
        for c, row in zip(vector_coords(field, b), matrix):
            if c:
                word = [field.add(w, field.mul(c, x)) for w, x in zip(word, row)]
        union |= sum(1 << i for i, w in enumerate(word) if w)
    return score([len(matrix[0]) - union.bit_count()])
