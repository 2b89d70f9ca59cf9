"""Ground-truth GHW computation by exhaustive subspace search.

Two independent oracles validate the closed form: a direct sweep that takes
the support union of every r-dimensional subcode, and a recount through the
dual of each message subspace under the trace bilinear form, where common
zeros become axis-supported dual vectors landing in a fixed cyclotomy class.
The two sweeps must agree on the maximum (the dual expression counts a
relabeled subspace, so agreement is between maxima, not per subspace).

Sweeps are partitioned by pivot-column pattern; partitions are independent
and combine by max reduction, so multi-process runs return identical results
to serial ones, including the reported witness.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from . import linalg
from .codes import TraceCode
from .errors import BudgetExceeded
from .subspaces import SubspaceIter, gaussian_binomial

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class GHWResult:
    r: int
    d_r: int
    common_zeros: int          # max over subspaces of the zero count
    witness: tuple             # basis of messages achieving the max
    examined: int

    def to_dict(self):
        return {
            "r": self.r,
            "d_r": self.d_r,
            "common_zeros": self.common_zeros,
            "witness_basis": [list(v) for v in self.witness],
            "subspaces_examined": self.examined,
        }


def count_common_zeros(code: TraceCode, basis) -> int:
    """Number of coordinates at which every word of the subcode vanishes."""
    return code.n - len(code.support_union(basis))


def count_via_dual(code: TraceCode, basis) -> int:
    """Recount of the common zeros through the dual-space expression.

    For each slot h, intersect the dual of the message subspace with the
    h-th axis, then count the vectors whose negated h-component falls in
    class 0; the zero count is N/(t*delta) times the total.  Requires
    e == t.  Equals the direct count of a relabeled subspace, so only the
    maxima over all subspaces of fixed dimension are comparable.
    """
    _require_e_equals_t(code.params)
    if not linalg.vectors_independent(code.field, basis):
        raise ValueError("basis vectors are GF(q)-dependent")
    return _count_via_dual_unchecked(code, basis)


def _require_e_equals_t(params):
    if params.e != params.t:
        raise ValueError(f"dual counting requires e == t, got e={params.e}, t={params.t}")


def _count_via_dual_unchecked(code: TraceCode, basis) -> int:
    field = code.field
    params = code.params
    m = field.m
    N = params.N
    trace_q = field.trace_table(field.s)
    mul, neg = field.mul, field.neg
    log = field.log
    gamma_pows = [field.exp[i % (field.Q - 1)] for i in range(m)]
    total = 0
    for h in range(params.t):
        rows = []
        for b in basis:
            bh = b[h]
            rows.append([trace_q[mul(bh, g)] if bh else 0 for g in gamma_pows])
        null = linalg.nullspace(field, rows, m)
        axis_elems = linalg.span_elements(
            field, [field.element_from_coords(v) for v in null])
        for y in axis_elems:
            if y and log[neg(y)] % N == 0:
                total += 1
    scaled = params.N * total
    denom = params.t * params.delta
    if scaled % denom:
        raise RuntimeError(
            f"dual count {total} times N={N} not divisible by t*delta={denom}")
    return scaled // denom


# -- exhaustive sweeps ------------------------------------------------------

class _OpRows(dict):
    """q x q table of a GF(q) operation on scalar indices.  Rows are built
    on first use, so a large q with few operands (k=1 over GF(3^10)) never
    allocates q^2 entries."""

    def __init__(self, op, scalars, index):
        self.op, self.scalars, self.index = op, scalars, index

    def __missing__(self, a):
        x, op, index = self.scalars[a], self.op, self.index
        row = self[a] = [index[op(x, b)] for b in self.scalars]
        return row


def _brute_scorer(code):
    """Common-zero count of an RREF basis, from per-row support bitmasks.

    By GF(q)-linearity a row's word is its combination of generator rows,
    computed on scalar indices (index 0 is zero), and the subcode's support
    is the union of its rows' supports.  Row masks are memoized per scorer,
    that is per sweep worker, at most q^k of them.  ``TraceCode.codeword``
    is the reference path.
    """
    field = code.field
    scalars = field.subfield_q
    index = {c: i for i, c in enumerate(scalars)}
    add = _OpRows(field.add, scalars, index)
    mul = _OpRows(field.mul, scalars, index)
    gen = [[index[c] for c in word] for word in code.generator_matrix()]
    bits = [1 << i for i in range(code.n)]
    masks = {}

    def row_mask(row):
        word = None
        for coef, g in zip(row, gen):
            if coef:
                if coef != 1:
                    scale = mul[index[coef]]
                    g = [scale[x] for x in g]
                word = g if word is None else [add[w][x] for w, x in zip(word, g)]
        return sum(b for b, w in zip(bits, word) if w)

    def score(rows):
        union = 0
        for row in rows:
            mask = masks.get(row)
            if mask is None:
                mask = masks[row] = row_mask(row)
            union |= mask
        return code.n - union.bit_count()

    return score


def _messages(field, t, rows):
    return tuple(linalg.vector_from_coords(field, t, row) for row in rows)


def _dual_scorer(code):
    field, t = code.field, code.t
    return lambda rows: _count_via_dual_unchecked(code, _messages(field, t, rows))


def _sweep_patterns(code, r, indexed_patterns, mode):
    score = _brute_scorer(code) if mode == "brute" else _dual_scorer(code)
    field = code.field
    t = code.t
    it = SubspaceIter(field, t * field.m, r)
    best = -1
    best_pos = None
    best_rows = ()
    examined = 0
    for pat_idx, pattern in indexed_patterns:
        for local, rows in enumerate(it.iter_pattern(pattern)):
            zeros = score(rows)
            examined += 1
            if zeros > best:
                best = zeros
                best_pos = (pat_idx, local)
                best_rows = rows
    witness = _messages(field, t, best_rows)
    if mode == "brute":
        recount = count_common_zeros(code, witness)
        if recount != best:
            raise RuntimeError(f"brute witness at r={r} recounts to {recount} "
                               f"common zeros, the sweep scored {best}")
    return best, best_pos, witness, examined


def _sweep_worker(payload):
    code, r, indexed_patterns, mode = payload
    return _sweep_patterns(code, r, indexed_patterns, mode)


def _max_common_zeros(code, r, mode, budget, jobs):
    tm = code.t * code.field.m
    if not 1 <= r <= tm:
        raise ValueError(f"need 1 <= r <= {tm}, got r={r}")
    total = gaussian_binomial(tm, r, code.q)
    budget = DEFAULT_BUDGET if budget is None else budget
    if total > budget:
        raise BudgetExceeded(total, budget, f"[{tm} choose {r}]_{code.q} = {total}")
    indexed = list(enumerate(SubspaceIter(code.field, tm, r).patterns()))
    if jobs and jobs > 1 and len(indexed) > 1:
        chunks = [indexed[w::jobs] for w in range(jobs)]
        chunks = [c for c in chunks if c]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(len(chunks)) as pool:
            parts = pool.map(_sweep_worker, [(code, r, c, mode) for c in chunks])
    else:
        parts = [_sweep_patterns(code, r, indexed, mode)]
    best, best_pos, best_witness = -1, None, ()
    examined = 0
    for zeros, pos, witness, count in parts:
        examined += count
        if zeros > best or (zeros == best and pos is not None and pos < best_pos):
            best, best_pos, best_witness = zeros, pos, witness
    if examined != total:
        raise RuntimeError(f"sweep visited {examined} subspaces, expected {total}")
    return best, best_witness, examined


def ghw_bruteforce(code: TraceCode, r: int, budget=None, jobs: int = 1) -> GHWResult:
    """r-th GHW by direct support minimization over every r-dim subcode.

    Each sweep worker recounts its best subspace through ``codeword``.
    """
    zeros, witness, examined = _max_common_zeros(code, r, "brute", budget, jobs)
    return GHWResult(r=r, d_r=code.n - zeros, common_zeros=zeros,
                     witness=witness, examined=examined)


def ghw_dual_sweep(code: TraceCode, r: int, budget=None, jobs: int = 1) -> GHWResult:
    """r-th GHW with the zero count recomputed via the dual expression.

    Requires e == t, like :func:`count_via_dual`.
    """
    _require_e_equals_t(code.params)
    zeros, witness, examined = _max_common_zeros(code, r, "dual", budget, jobs)
    return GHWResult(r=r, d_r=code.n - zeros, common_zeros=zeros,
                     witness=witness, examined=examined)
