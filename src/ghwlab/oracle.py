"""Ground-truth GHW computation by exhaustive subspace search.

Two independent oracles validate the closed form: a direct sweep that takes
the support union of every r-dimensional subcode, and a recount through the
dual of each message subspace under the trace bilinear form, where common
zeros become axis-supported dual vectors landing in a fixed cyclotomy class.
The two sweeps must agree on the maximum.  The dual sweep reads each
subspace it enumerates as an image relabel(S) under ``TraceCode.relabel``,
an invertible linear map, and the dual count of relabel(S) is the direct
count of S subspace by subspace (``tests/test_relabel.py``).  The sweeps
therefore maximize the same counts, though the dual sweep's witness is a
basis of the image, not of S.

Both sweeps are one kernel over a k x w matrix M over GF(q): a message row
marks the positions where ``row . M`` is nonzero.  Both matrices are read
from ``FieldCtx.trace_coords``.  For the direct sweep M is the generator
matrix; for the dual sweep row (h, j) of M holds Tr_{Q->q}(gamma^j * y),
coordinate j of the trace coordinates of y, at slot h for each target y,
since a slot's element is sum_j c_j gamma^j and the trace is GF(q)-linear.
The sweeps differ only in how they turn a count of marked positions into a
zero count.

A pivot pattern's subspaces are the product of its rows' independent
choices.  The kernel gives every choice of a row at once: it builds the
row's prefix words depth first, then sorts the positions of each prefix
word into one bucket per value of the last free entry (the value that zeroes
the position), so a choice's mask is the complement of its bucket and of
the positions that vanish for every value.  A word is a list of w scalar
indices, or its value planes (``bitplanes``) where q is small next to w;
its GF(q) arithmetic reads the rows of one ``linalg.ScalarTable``.
Trailing rows whose choices number at most ``_TAIL_CAP`` together are
OR-folded into one list of masks, in product order; a subspace is then
scored by OR-ing the masks of the remaining rows once per prefix and taking
one popcount per folded mask.  A witness is decoded from its subspace's
position by ``SubspaceIter.pattern_basis``.  The dual count of a
single basis, ``count_via_dual``, is a test reference in
``tests/paper_lemmas.py`` that scores through this module's dual scorer.

Sweeps are split into work units, slices of a pattern's first-row choices;
units are independent and combine by max reduction, so multi-process runs
return identical results to serial ones, including the reported witness.
Units are dealt largest first to the least-loaded worker.  The parent
builds the kernel once, then with N jobs forks N-1 children and sweeps the
last share itself.  Children inherit the kernel and see no code or mode;
only the ints of each share's best cross a pipe.  The parent decodes every
share's best and, for the brute sweep, recounts each one.
"""

from __future__ import annotations

import marshal
import math
import operator
import os
from collections import namedtuple

from . import linalg
from .codes import TraceCode, count_common_zeros
from .errors import DEFAULT_BUDGET, BudgetExceeded
from .subspaces import SubspaceIter, gaussian_binomial

# a fanned-out sweep is cut into about this many work units per worker
_UNITS_PER_JOB = 4

# trailing rows are OR-folded into one mask list while it stays this long
_TAIL_CAP = 4096


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


def _require_e_equals_t(params):
    if params.e != params.t:
        raise ValueError(f"dual counting requires e == t, got e={params.e}, t={params.t}")


# -- the row-mask kernel ------------------------------------------------------

class _RowMasks:
    """Support bitmasks of ``row . M`` for a k x w matrix M over GF(q).

    M is held as the scalar indices of a ``linalg.ScalarTable``, whose rows
    do the kernel's GF(q) arithmetic (index 0 is zero).
    A pattern row is 1 at its pivot pc and any scalar at its free columns
    f_1 < ... < f_s, so its words are M[pc] + c_1 M[f_1] + ... + c_s M[f_s].
    A word is a list of w indices, or its value planes with ``bitplanes``.
    """

    def __init__(self, field, matrix):
        self.table = table = linalg.ScalarTable(field)
        self.rows = [table.indices(row) for row in matrix]
        self.full = (1 << len(self.rows[0])) - 1
        # forced on the same matrices, planes took 0.37-0.92x the lists' time
        # from 2*q*q <= w on, and 1.25-1.88x below it at q = 4..243 (15x on
        # [242,3] over GF(243)), 1.14-1.17x at q = 3, w = 8
        self.bitplanes = 2 * table.q ** 2 <= len(self.rows[0])
        self.planes = None  # every row's value planes, built on first use

    def row_masks(self, pivot, free):
        """The mask of every choice of the row, in ``row_choices`` order.

        For the last free column g, position i of a prefix word w vanishes
        for the one c with w_i + c*g_i = 0 when g_i != 0, and for every c
        or none when g_i = 0; one pass puts each position in its bucket, or
        in ``zz`` when g_i = w_i = 0, and the mask for c is the rest.
        """
        rows, full = self.rows, self.full
        if not free:  # from a bitmap string, with no int per position
            return [int("".join("1" if x else "0" for x in reversed(rows[pivot])), 2)]
        *heads, last = free
        if self.bitplanes:  # loaded by the first row on planes, not by every import
            from . import bitplanes
            return bitplanes.row_masks(self, pivot, heads, last)
        g = rows[last]
        q, add, mul = self.table.q, self.table.add, self.table.mul
        live = [(i, 1 << i, self.table.root[x]) for i, x in enumerate(g) if x]
        dead = [(i, 1 << i) for i, x in enumerate(g) if not x]
        # steps[h][c][i] is the add-table row of c * M[heads[h]][i]; None for c = 0
        steps = [[[add[mul[x][c]] for x in rows[f]] if c else None for c in range(q)]
                 for f in heads]
        masks = []
        for word in _prefixes(rows[pivot], steps, lambda w, step: [r[a] for a, r in zip(w, step)]):
            bucket = [0] * q
            for i, bit, root in live:
                bucket[root[word[i]]] |= bit
            zz = 0
            for i, bit in dead:
                if not word[i]:
                    zz |= bit
            masks.extend([full ^ (zz | b) for b in bucket])
        return masks


def _prefixes(word, steps, plus):
    """``word + c_1 M[f_1] + ...`` for every (c_1, ...) in product order,
    one ``plus(word, step)`` per word, none for c = 0 (step None), depth
    first: one word per level is alive."""
    if not steps:
        yield word
        return
    first, *rest = steps
    for step in first:
        prefix = plus(word, step) if step else word
        if rest:
            yield from _prefixes(prefix, rest, plus)
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
    supports.  The matrix is read from the trace tables, so the recount of
    each share's best through ``TraceCode.codeword`` in ``_sweep`` checks it.
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
    field, params, t = code.field, code.params, code.t
    targets = [field.neg(x) for x in code.cyclotomy.class_elements(0)]
    size = len(targets)
    width, denom = t * size, t * params.delta
    block = list(zip(*map(field.trace_coords, targets)))  # row j: Tr(gamma^j * y)
    matrix = []
    for h in range(t):
        for coords in block:
            row = [0] * width
            row[h * size:(h + 1) * size] = coords
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

def _fold_tail(rows):
    """``rows`` with its trailing rows OR-folded into the last while that
    holds at most ``_TAIL_CAP`` masks: one OR per combination, in product
    order, so a subspace keeps its position."""
    if not rows:
        return rows
    *heads, last = rows
    while heads and len(heads[-1]) * len(last) <= _TAIL_CAP:
        last = [a | b for a in heads.pop() for b in last]
    return [*heads, last]


def _sweep_units(kernel, score, it, units):
    """Best subspace of the units ``(pat_idx, pattern, lo, hi)``, each the
    slice [lo, hi) of its pattern's first-row choices, given in sweep order:
    ``(zeros, (pat_idx, index), pattern, examined)``, plain ints."""
    best, best_pos, best_pattern = -1, None, None
    examined, masks_of = 0, None
    for pat_idx, pattern, lo, hi in units:
        if masks_of != pat_idx:  # a worker's consecutive units share a pattern
            masks_of = pat_idx
            first, *rest = [kernel.row_masks(pc, free) for pc, free in it.row_columns(pattern)]
            rest = _fold_tail(rest)
        *heads, last = [first[lo:hi], *rest]
        offset = lo * math.prod(map(len, rest))
        # depth first over the prefix unions; a zero mask adds nothing
        for pos, union in enumerate(_prefixes(0, heads, operator.or_)):
            pops = [(union | mask).bit_count() for mask in last]
            zeros = score(pops)
            examined += len(pops)
            if zeros > best:
                # fewest marked positions is most zeros, for both scores
                best = zeros
                best_pos = (pat_idx, offset + pos * len(last) + pops.index(min(pops)))
                best_pattern = pattern
    return best, best_pos, best_pattern, examined


def _work_units(it, q, jobs, total):
    """The sweep as ``(size, (pat_idx, pattern, lo, hi))`` units, in sweep order.

    Each pattern's first-row choices are sliced so that a unit holds about
    total / (jobs * _UNITS_PER_JOB) subspaces, or one first-row choice if
    that is more.  A worker's consecutive units of one pattern share its
    masks, so slicing a serial sweep costs no extra mask builds.
    """
    cap = -(-total // (jobs * _UNITS_PER_JOB))
    units = []
    for pat_idx, pattern in enumerate(it.patterns()):
        first, *rest = [q ** len(free) for _, free in it.row_columns(pattern)]
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


def _fan_out(sweep, chunks):
    """``sweep`` of every chunk: a forked child per chunk but the last, which
    the parent sweeps itself.  Children inherit ``sweep`` and all it holds,
    so only their parts, plain ints, cross a pipe, or the exception a child
    raised.  A child leaves by ``os._exit``: no atexit handlers, no flush of
    the parent's buffers.  The parent reaps every child, first killing them
    all if its own share or a read fails."""
    pids, pipes, parts = [], [], []
    try:
        for chunk in chunks[:-1]:
            rfd, wfd = os.pipe()
            if not (pid := os.fork()):
                status = 1
                try:
                    try:
                        data = marshal.dumps((True, sweep(chunk)))
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
        last = sweep(chunks[-1])
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
    """Every r-dim subspace, on a kernel built once before the fork."""
    tm, field = code.k, code.field
    if not 1 <= r <= tm:
        raise ValueError(f"need 1 <= r <= {tm}, got r={r}")
    total = gaussian_binomial(tm, r, code.q)
    budget = DEFAULT_BUDGET if budget is None else budget
    if total > budget:
        raise BudgetExceeded(total, budget, f"[{tm} choose {r}]_{code.q} = {total}")
    jobs = jobs or 1
    matrix, score = _brute_scorer(code) if mode == "brute" else _dual_scorer(code)
    kernel = _RowMasks(field, matrix)
    it = SubspaceIter(field, tm, r)
    chunks = _deal(_work_units(it, code.q, jobs, total), jobs)
    parts = _fan_out(lambda chunk: _sweep_units(kernel, score, it, chunk), chunks)
    if (examined := sum(part[3] for part in parts)) != total:
        raise RuntimeError(f"sweep visited {examined} subspaces, expected {total}")
    best, best_pos, best_witness = -1, None, ()
    for zeros, pos, pattern, _ in parts:
        witness = tuple(linalg.vector_from_coords(field, code.t, row)
                        for row in it.pattern_basis(pattern, pos[1]))
        if mode == "brute" and (recount := count_common_zeros(code, witness)) != zeros:
            raise RuntimeError(f"brute witness at r={r} recounts to {recount} "
                               f"common zeros, the sweep scored {zeros}")
        if zeros > best or (zeros == best and pos < best_pos):
            best, best_pos, best_witness = zeros, pos, witness
    return GHWResult(r=r, d_r=code.n - best, common_zeros=best,
                     witness=best_witness, examined=examined)


def ghw_bruteforce(code: TraceCode, r: int, budget=None, jobs: int = 1) -> GHWResult:
    """r-th GHW by direct support minimization over every r-dim subcode.

    The parent recounts every sweep share's best subspace through
    ``codeword``.
    """
    return _sweep(code, r, "brute", budget, jobs)


def ghw_dual_sweep(code: TraceCode, r: int, budget=None, jobs: int = 1) -> GHWResult:
    """r-th GHW with the zero count recomputed via the dual expression.

    Requires e == t.
    """
    _require_e_equals_t(code.params)
    return _sweep(code, r, "dual", budget, jobs)
