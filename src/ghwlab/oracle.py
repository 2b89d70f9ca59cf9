"""Ground-truth GHW computation by exhaustive subspace search.

Two independent oracles validate the closed form: a direct sweep that takes
the support union of every r-dimensional subcode, and a recount through the
dual of each message subspace under the trace bilinear form, where common
zeros become axis-supported dual vectors landing in a fixed cyclotomy class.
The two sweeps must agree on the maximum (the dual expression counts a
relabeled subspace, so agreement is between maxima, not per subspace).

Both sweeps are one kernel over a k x w matrix M over GF(q): a message row
marks the positions where ``row . M`` is nonzero.  For the direct sweep M is
the generator matrix; for the dual sweep row (h, j) of M holds
Tr_{Q->q}(gamma^j * y) at slot h for each target y, since a slot's element is
sum_j c_j gamma^j and the trace is GF(q)-linear.  The sweeps differ only in
how they turn a count of marked positions into a zero count.

A pivot pattern's subspaces are the product of its rows' independent
choices.  The kernel gives every choice of a row at once: it builds the
row's prefix words depth first, then sorts the positions of each prefix
word into one bucket per value of the last free entry (the value that zeroes
the position), so a choice's mask is the complement of its bucket and of
the positions that vanish for every value.  A subspace is then scored by
OR-ing its first r-1 masks once per prefix and taking one popcount per mask
of the last row.  The dual count of a single basis, ``count_via_dual``, is
a test reference in ``tests/paper_lemmas.py`` that scores through this
module's dual scorer.

Sweeps are split into work units, slices of a pattern's first-row choices;
units are independent and combine by max reduction, so multi-process runs
return identical results to serial ones, including the reported witness.
Units are dealt largest first to the least-loaded worker.  With N jobs the
parent forks N-1 children and sweeps the last share itself; the children
inherit the code, so only their results cross a pipe, never the code's
tables.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import math
import operator
import os
from collections import namedtuple

from . import linalg
from .codes import TraceCode
from .errors import BudgetExceeded
from .subspaces import SubspaceIter, gaussian_binomial

DEFAULT_BUDGET = 10_000_000

# a fanned-out sweep is cut into about this many work units per worker
_UNITS_PER_JOB = 4


class GHWResult(namedtuple("GHWResult", "r d_r common_zeros witness examined")):
    """r-th GHW of an exhaustive sweep: common_zeros is the max over
    subspaces of the zero count, witness a basis of messages achieving it,
    examined the number of subspaces scored."""

    __slots__ = ()

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


def _require_e_equals_t(params):
    if params.e != params.t:
        raise ValueError(f"dual counting requires e == t, got e={params.e}, t={params.t}")


# -- the row-mask kernel ------------------------------------------------------

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


class _RowMasks:
    """Support bitmasks of ``row . M`` for a k x w matrix M over GF(q).

    M is held as scalar indices in ``subfield_q`` order (index 0 is zero).
    A pattern row is 1 at its pivot pc and any scalar at its free columns
    f_1 < ... < f_s, so its words are M[pc] + c_1 M[f_1] + ... + c_s M[f_s].
    """

    def __init__(self, field, matrix):
        scalars = field.subfield_q
        index = {c: i for i, c in enumerate(scalars)}
        self.q = len(scalars)
        self.rows = [[index[c] for c in row] for row in matrix]
        self.add = _OpRows(field.add, scalars, index)
        self.mul = _OpRows(field.mul, scalars, index)
        # root[g][x] is the c with x + c*g = 0; a row per nonzero g in use
        self.root = _OpRows(lambda g, x: field.neg(field.mul(x, field.inv(g))),
                            scalars, index)
        width = len(self.rows[0])
        self.bits = [1 << i for i in range(width)]
        self.full = (1 << width) - 1

    def row_masks(self, pivot, free):
        """The mask of every choice of the row, in ``row_choices`` order.

        For the last free column g, position i of a prefix word w vanishes
        for the one c with w_i + c*g_i = 0 when g_i != 0, and for every c
        or none when g_i = 0; one pass puts each position in its bucket, or
        in ``zz`` when g_i = w_i = 0, and the mask for c is the rest.
        """
        rows, bits, full = self.rows, self.bits, self.full
        if not free:
            return [sum(b for b, x in zip(bits, rows[pivot]) if x)]
        *heads, last = free
        g = rows[last]
        live = [(i, bits[i], self.root[x]) for i, x in enumerate(g) if x]
        dead = [(i, bits[i]) for i, x in enumerate(g) if not x]
        # steps[h][c][i] is the add-table row of c * M[heads[h]][i]
        add, mul = self.add, self.mul
        steps = [[[add[mul[x][c]] for x in rows[f]] for c in range(self.q)] for f in heads]
        masks = []
        for word in _prefixes(rows[pivot], steps):
            bucket = [0] * self.q
            for i, bit, root in live:
                bucket[root[word[i]]] |= bit
            zz = 0
            for i, bit in dead:
                if not word[i]:
                    zz |= bit
            masks.extend([full ^ (zz | b) for b in bucket])
        return masks


def _prefixes(word, steps):
    """``word + c_1 M[f_1] + ...`` for every (c_1, ...) in product order,
    one table add per word, depth first: one word per level is alive."""
    if not steps:
        yield word
        return
    first, *rest = steps
    for step in first:
        prefix = [row[a] for a, row in zip(word, step)]
        if rest:
            yield from _prefixes(prefix, rest)
        else:
            yield prefix


def _unmarked(width, pops):
    """For each count of marked positions, the number of the ``width``
    positions left unmarked."""
    return [width - p for p in pops]


def _brute_scorer(code):
    """``(matrix, score)``: the generator matrix, whose ``row . M`` is the
    row's codeword, and the common-zero count of the best subspace of a list
    from the subspaces' support sizes (each a popcount of OR-ed row masks).

    By GF(q)-linearity the subcode's support is the union of its rows'
    supports.  ``TraceCode.codeword`` is the reference path.
    """
    return code.generator_matrix(), lambda pops: code.n - min(pops)


def _dual_scorer(code):
    """``(matrix, score)``: the trace-pairing matrix, and the common-zero
    count of the best subspace of a list through the dual expression.

    A row's message b marks the pair (h, y), y in -C_0, when
    Tr_{Q->q}(b_h * y) != 0.  The trace form is GF(q)-linear in b, so the
    unmarked pairs are the y on axis h that pair to zero with the whole
    subspace: the axis-supported dual vectors whose negation lies in class
    0.  Their count times N/(t*delta) is the zero count, checked integral.
    """
    field, params, t, m = code.field, code.params, code.t, code.field.m
    trace_q = field.trace_table(field.s)
    targets = [field.neg(x) for x in code.cyclotomy.class_elements(0)]
    size = len(targets)
    width, denom = t * size, t * params.delta
    matrix = []
    for h in range(t):
        for j in range(m):
            row = [0] * width
            row[h * size:(h + 1) * size] = [trace_q[field.mul(field.exp[j], y)]
                                            for y in targets]
            matrix.append(row)

    def score(pops):
        totals = _unmarked(width, set(pops))  # every count, each once
        for total in totals:
            if params.N * total % denom:
                raise RuntimeError(f"dual count {total} times N={params.N} "
                                   f"not divisible by t*delta={denom}")
        return params.N * max(totals) // denom

    return matrix, score


# -- exhaustive sweeps ------------------------------------------------------

def _sweep_units(code, r, units, mode):
    """Best subspace of the units ``(pat_idx, pattern, lo, hi)``, each the
    slice [lo, hi) of its pattern's first-row choices, given in sweep order."""
    field = code.field
    matrix, score = _brute_scorer(code) if mode == "brute" else _dual_scorer(code)
    kernel = _RowMasks(field, matrix)
    it = SubspaceIter(field, code.k, r)
    best = -1
    best_pos = None
    best_pattern = None
    examined = 0
    masks_of, masks = None, None
    for pat_idx, pattern, lo, hi in units:
        if masks_of != pat_idx:
            masks_of = pat_idx
            masks = [kernel.row_masks(pc, free) for pc, free in it.row_columns(pattern)]
        first, *rest = masks
        *heads, last = [first[lo:hi], *rest]
        offset = lo * math.prod(map(len, rest))
        for pos, prefix in enumerate(itertools.product(*heads)):
            union = functools.reduce(operator.or_, prefix, 0)
            pops = [(union | mask).bit_count() for mask in last]
            zeros = score(pops)
            examined += len(pops)
            if zeros > best:
                # fewest marked positions is most zeros, for both scores
                best = zeros
                best_pos = (pat_idx, offset + pos * len(last) + pops.index(min(pops)))
                best_pattern = pattern
    best_rows = next(itertools.islice(it.iter_pattern(best_pattern), best_pos[1], None))
    witness = tuple(linalg.vector_from_coords(field, code.t, row) for row in best_rows)
    if mode == "brute":
        recount = count_common_zeros(code, witness)
        if recount != best:
            raise RuntimeError(f"brute witness at r={r} recounts to {recount} "
                               f"common zeros, the sweep scored {best}")
    return best, best_pos, witness, examined


def _work_units(code, r, jobs, total):
    """The sweep as ``(size, (pat_idx, pattern, lo, hi))`` units, in sweep order.

    A serial sweep takes whole patterns.  A fanned-out one slices each
    pattern's first-row choices so that a unit holds about total / (jobs *
    _UNITS_PER_JOB) subspaces, or one first-row choice if that is more.
    """
    it = SubspaceIter(code.field, code.k, r)
    cap = total if jobs <= 1 else -(-total // (jobs * _UNITS_PER_JOB))
    units = []
    for pat_idx, pattern in enumerate(it.patterns()):
        first, *rest = [code.q ** len(free) for _, free in it.row_columns(pattern)]
        other = math.prod(rest)
        step = max(1, cap // other)
        for lo in range(0, first, step):
            hi = min(lo + step, first)
            units.append(((hi - lo) * other, (pat_idx, pattern, lo, hi)))
    return units


def _deal(units, jobs):
    """Units largest first, each to the least-loaded worker, so the workers'
    loads differ by at most the largest unit; each chunk in sweep order."""
    loads = [0] * jobs
    chunks = [[] for _ in range(jobs)]
    for size, unit in sorted(units, key=lambda u: -u[0]):
        w = loads.index(min(loads))
        loads[w] += size
        chunks[w].append(unit)
    return [sorted(c) for c in chunks if c]


def _fan_out(code, r, chunks, mode):
    """``_sweep_units`` of every chunk: a forked child per chunk but the
    last, which the parent sweeps itself.  Children inherit the code, so
    only their parts cross a pipe, or the exception a child raised.  A child
    leaves by ``os._exit``: no atexit handlers, no flush of the parent's
    buffers.  The parent reaps every child, first killing them all if its
    own share or a read fails."""
    pids, pipes, parts = [], [], []
    try:
        for chunk in chunks[:-1]:
            rfd, wfd = os.pipe()
            if not (pid := os.fork()):
                status = 1
                try:
                    try:
                        data = marshal.dumps((True, _sweep_units(code, r, chunk, mode)))
                    except Exception as exc:
                        import pickle  # only a failed child pays for its import
                        data = marshal.dumps((False, pickle.dumps(exc)))
                    with open(wfd, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wfd)
            pids.append(pid)
            pipes.append(open(rfd, "rb"))
        last = _sweep_units(code, r, chunks[-1], mode)
        for pid, pipe in zip(pids, pipes):
            if not (data := pipe.read()):
                raise RuntimeError(f"sweep child {pid} ended without a result")
            ok, part = marshal.loads(data)
            if not ok:
                import pickle
                raise pickle.loads(part)
            parts.append(part)
    except BaseException:
        for pid in pids:  # unreaped, so running or a zombie: kill cannot miss
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return parts + [last]


def _sweep(code, r, mode, budget, jobs) -> GHWResult:
    tm = code.k
    if not 1 <= r <= tm:
        raise ValueError(f"need 1 <= r <= {tm}, got r={r}")
    total = gaussian_binomial(tm, r, code.q)
    budget = DEFAULT_BUDGET if budget is None else budget
    if total > budget:
        raise BudgetExceeded(total, budget, f"[{tm} choose {r}]_{code.q} = {total}")
    jobs = jobs or 1
    units = _work_units(code, r, jobs, total)
    if jobs > 1 and len(units) > 1:
        parts = _fan_out(code, r, _deal(units, jobs), mode)
    else:
        parts = [_sweep_units(code, r, [unit for _, unit in units], mode)]
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

    Requires e == t.
    """
    _require_e_equals_t(code.params)
    return _sweep(code, r, "dual", budget, jobs)
