"""Ground-truth GHW computation by exhaustive subspace search.

Two independent oracles validate the closed form: a direct sweep that takes
the support union of every r-dimensional subcode, and a recount through the
dual of each message subspace under the trace bilinear form, where common
zeros become axis-supported dual vectors landing in a fixed cyclotomy class.
The two sweeps must agree on the maximum (the dual expression counts a
relabeled subspace, so agreement is between maxima, not per subspace).
Both score a subspace the same way: the positions no basis row marks, from
one bitmask per row.  A pivot pattern's subspaces are the product of its
rows' independent choices, so each choice's mask is computed once per
pattern and every subspace is scored from a tuple of masks.

Sweeps are partitioned by pivot-column pattern; partitions are independent
and combine by max reduction, so multi-process runs return identical results
to serial ones, including the reported witness.
"""

from __future__ import annotations

import itertools
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
    row_mask, score = _dual_scorer(code)
    return score([row_mask(linalg.vector_coords(code.field, b)) for b in basis])


def _require_e_equals_t(params):
    if params.e != params.t:
        raise ValueError(f"dual counting requires e == t, got e={params.e}, t={params.t}")


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


def _unmarked(width, masks):
    """The number of the ``width`` positions that no row's mask marks."""
    union = 0
    for mask in masks:
        union |= mask
    return width - union.bit_count()


def _brute_scorer(code):
    """``(row_mask, score)``: a row's support bitmask, and the common-zero
    count of a basis from its rows' masks.

    By GF(q)-linearity a row's word is its combination of generator rows,
    computed on scalar indices (index 0 is zero), and the subcode's support
    is the union of its rows' supports.  ``TraceCode.codeword`` is the
    reference path.
    """
    field = code.field
    scalars = field.subfield_q
    index = {c: i for i, c in enumerate(scalars)}
    add = _OpRows(field.add, scalars, index)
    mul = _OpRows(field.mul, scalars, index)
    gen = [[index[c] for c in word] for word in code.generator_matrix()]
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

    return row_mask, lambda masks: _unmarked(code.n, masks)


def _dual_scorer(code):
    """``(row_mask, score)``: a row's marked (slot, target) pairs, and the
    common-zero count of a basis through the dual expression.

    A row's message b marks the pair (h, y), y in -C_0, when
    Tr_{Q->q}(b_h * y) != 0.  The trace form is GF(q)-linear in b, so the
    unmarked pairs are the y on axis h that pair to zero with the whole
    subspace: the axis-supported dual vectors whose negation lies in class
    0.  Their count times N/(t*delta) is the zero count, checked integral.
    """
    field, params, t, m = code.field, code.params, code.t, code.field.m
    trace_q, mul = field.trace_table(field.s), field.mul
    targets = [field.neg(x) for x in code.cyclotomy.class_elements(0)]
    slot_bits = [[1 << (h * len(targets) + i) for i in range(len(targets))]
                 for h in range(t)]
    width, denom = t * len(targets), t * params.delta

    def row_mask(row):
        mask = 0
        for h, bits in enumerate(slot_bits):
            bh = field.element_from_coords(row[h * m:(h + 1) * m])
            if bh:
                mask |= sum(b for b, y in zip(bits, targets) if trace_q[mul(bh, y)])
        return mask

    def score(masks):
        total = _unmarked(width, masks)
        scaled = params.N * total
        if scaled % denom:
            raise RuntimeError(f"dual count {total} times N={params.N} "
                               f"not divisible by t*delta={denom}")
        return scaled // denom

    return row_mask, score


def _sweep_patterns(code, r, indexed_patterns, mode):
    row_mask, score = _brute_scorer(code) if mode == "brute" else _dual_scorer(code)
    field = code.field
    it = SubspaceIter(field, code.k, r)
    best = -1
    best_pos = None
    best_pattern = None
    examined = 0
    for pat_idx, pattern in indexed_patterns:
        masks = [[row_mask(row) for row in rows] for rows in it.row_choices(pattern)]
        for local, subspace in enumerate(itertools.product(*masks)):
            zeros = score(subspace)
            examined += 1
            if zeros > best:
                best = zeros
                best_pos = (pat_idx, local)
                best_pattern = pattern
    best_rows = next(itertools.islice(it.iter_pattern(best_pattern), best_pos[1], None))
    witness = tuple(linalg.vector_from_coords(field, code.t, row) for row in best_rows)
    if mode == "brute":
        recount = count_common_zeros(code, witness)
        if recount != best:
            raise RuntimeError(f"brute witness at r={r} recounts to {recount} "
                               f"common zeros, the sweep scored {best}")
    return best, best_pos, witness, examined


def _sweep(code, r, mode, budget, jobs) -> GHWResult:
    tm = code.k
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
            parts = pool.starmap(_sweep_patterns, [(code, r, c, mode) for c in chunks])
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
    return GHWResult(r=r, d_r=code.n - best, common_zeros=best,
                     witness=best_witness, examined=examined)


def ghw_bruteforce(code: TraceCode, r: int, budget=None, jobs: int = 1) -> GHWResult:
    """r-th GHW by direct support minimization over every r-dim subcode.

    Each sweep worker recounts its best subspace through ``codeword``.
    """
    return _sweep(code, r, "brute", budget, jobs)


def ghw_dual_sweep(code: TraceCode, r: int, budget=None, jobs: int = 1) -> GHWResult:
    """r-th GHW with the zero count recomputed via the dual expression.

    Requires e == t, like :func:`count_via_dual`.
    """
    _require_e_equals_t(code.params)
    return _sweep(code, r, "dual", budget, jobs)
