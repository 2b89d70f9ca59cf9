"""Ground-truth GHW computation by exhaustive subspace search.

Two independent oracles validate the closed form: a direct sweep that counts
the common zeros of every r-dimensional subcode, d_r = n - max N(D), and a
recount through the dual of each message subspace under the trace bilinear
form, where common zeros become axis-supported dual vectors landing in a
fixed cyclotomy class.  The two sweeps must agree on the maximum.  The dual
sweep reads each subspace it enumerates as an image relabel(S) under
``TraceCode.relabel``, an invertible linear map, and the dual count of
relabel(S) is the direct count of S subspace by subspace
(``tests/test_relabel.py``).  The sweeps therefore maximize the same counts,
though the dual sweep's witness is a basis of the image, not of S.

Both sweeps are one kernel over a k x w matrix M over GF(q): a message row's
zero set is the positions where ``row . M`` vanishes, and a subspace's common
zeros are the AND of its rows' zero sets.  Both matrices are trace pairings
of messages with points of F_Q^t, built by ``linalg.pairing_matrix``.  For
the direct sweep M is the generator matrix, paired with the evaluation
points; for the dual sweep the points are the z*e_h, z in C_0, so M is t
copies on the diagonal of one slot block, whose row j holds
Tr_{Q->q}(gamma^j * z) for each z in C_0.  The sweeps differ only in how
they turn a count of common zeros into a zero count.

A pivot pattern's subspaces are the product of its rows' independent
choices.  The kernel gives every choice of a row at once: it builds the
row's prefix words depth first, then sorts the positions of each prefix
word into one bucket per value of the last free entry (the value that zeroes
the position), so a choice's zero set is its bucket and the positions that
vanish for every value.  A word is a list of w scalar indices, or its value
planes where q is small next to w; its GF(q) arithmetic reads the rows of
one ``linalg.ScalarTable``.  Trailing rows whose choices number at most
``_TAIL_CAP`` together are AND-folded into one list of zero sets, in product
order; a subspace is then scored by AND-ing the zero sets of the remaining
rows once per prefix and taking one popcount per folded zero set.  A witness
is decoded from its subspace's position by ``SubspaceIter.pattern_basis``.
The dual count of a single basis, ``count_via_dual``, is a test reference in
``tests/paper_lemmas.py`` that scores through this module's dual scorer.

Sweeps are split into work units, slices of a pattern's first-row choices,
or the whole pattern where each choice is a single subspace (every pattern
at r = 1): every holder of a slice builds the whole mask list.  Units are
independent and combine by max reduction, so multi-process runs return
identical results to serial ones, including the reported witness.  Units
are dealt largest first to the least-loaded worker.  The parent
builds the kernel once, then with N jobs forks N-1 children and sweeps the
last share itself.  Children inherit the kernel and see no code or mode;
only the ints of each share's best cross a pipe.  The parent decodes every
share's best and, for the brute sweep, recounts each one.
"""

from __future__ import annotations

import functools
import marshal
import math
import operator
import os
from collections import namedtuple

from . import linalg
from .codes import TraceCode, count_common_zeros, require_e_equals_t
from .errors import DEFAULT_BUDGET, BudgetExceeded
from .subspaces import SubspaceIter, gaussian_binomial

# a fanned-out sweep is cut into about this many work units per worker
_UNITS_PER_JOB = 4

# trailing rows are AND-folded into one zero-set list while it stays this long
_TAIL_CAP = 4096


class GHWResult(namedtuple("GHWResult", "r d_r common_zeros witness examined")):
    """r-th GHW of an exhaustive sweep: common_zeros is the max over
    subspaces of the zero count, witness a basis of messages achieving it,
    examined the number of subspaces scored."""

    __slots__ = ()

    def to_dict(self):
        return {"r": self.r, "d_r": self.d_r, "common_zeros": self.common_zeros,
                "witness_basis": [list(v) for v in self.witness],
                "subspaces_examined": self.examined}


# -- the row-mask kernel ------------------------------------------------------

class _RowMasks:
    """Zero-set bitmasks of ``row . M`` for a k x w matrix M over GF(q),
    with ``full``, the w positions, as the identity of their AND.

    M is held as the scalar indices of a ``linalg.ScalarTable``, whose rows
    do the kernel's GF(q) arithmetic (index 0 is zero).
    A pattern row is 1 at its pivot pc and any scalar at its free columns
    f_1 < ... < f_s, so its words are M[pc] + c_1 M[f_1] + ... + c_s M[f_s].
    A word is a list of w indices, or with ``bitplanes`` its value planes:
    (v, mask of the positions holding v) for each value v that occurs, in
    value order (bitslicing; Biham, FSE 1997).
    """

    def __init__(self, field, matrix):
        self.table = table = linalg.ScalarTable(field)
        self.rows = [table.indices(row) for row in matrix]
        self.full = (1 << len(self.rows[0])) - 1
        # forced on the same matrices, planes took 0.37-0.92x the lists' time
        # from 2*q*q <= w on, and 1.25-1.88x below it at q = 4..243 (15x on
        # [242,3] over GF(243)), 1.14-1.17x at q = 3, w = 8
        self.bitplanes = 2 * table.q ** 2 <= len(self.rows[0])

    @functools.cached_property
    def planes(self):
        """Every row's value planes, built by the first row on planes."""
        return [_value_planes(row) for row in self.rows]

    def row_masks(self, pivot, free):
        """The zero set of every choice of the row, in ``row_choices`` order.

        For the last free column g, position i of a prefix word w vanishes
        for the one c with w_i + c*g_i = 0 when g_i != 0, and for every c
        or none when g_i = 0; one pass puts each position in its bucket, or
        in ``zz`` when g_i = w_i = 0, and the zero set for c is its bucket
        and ``zz``.
        """
        rows = self.rows
        if not free:  # from a bitmap string, with no int per position
            return [int("".join("0" if x else "1" for x in reversed(rows[pivot])), 2)]
        *heads, last = free
        if self.bitplanes:
            return self._plane_masks(pivot, heads, last)
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
            masks.extend([zz | b for b in bucket])
        return masks

    def _plane_masks(self, pivot, heads, last):
        """``row_masks`` on value planes, the same masks in the same order: the
        bucket pass of g ORs W[x] & G[y] into the bucket of root[y][x], up to
        q*q big-int ANDs where a list of w indices costs about w steps."""
        planes = self.planes
        q, add, mul, root = self.table.q, self.table.add, self.table.mul, self.table.root
        live = [(root[y], gy) for y, gy in planes[last] if y]
        g0 = dict(planes[last]).get(0, 0)
        # steps[h][c] pairs mul[c][y] with plane y of M[heads[h]]; None for c = 0
        steps = [[[(mul[c][y], py) for y, py in planes[f]] if c else None for c in range(q)]
                 for f in heads]
        masks = []
        for word in _prefixes(planes[pivot], steps, functools.partial(_plane_add, q, add)):
            bucket = [0] * q
            for x, wx in word:
                for rx, gy in live:
                    if m := wx & gy:
                        bucket[rx[x]] |= m
            zz = 0 if word[0][0] else word[0][1] & g0  # W[0] & G[0]
            masks.extend([zz | b for b in bucket])
        return masks


def _value_planes(row):
    """(v, bitmask of the positions holding v) for each value v of ``row``,
    each mask from a bitmap string, with no int per position."""
    return [(v, int("".join(["1" if x == v else "0" for x in reversed(row)]), 2))
            for v in sorted(set(row))]


def _plane_add(q, add, word, step):
    """``word + c * M[f]``: W[x] & P[y] goes to the plane of x + c*y,
    ``step`` holding the pairs (mul[c][y], plane y)."""
    new = [0] * q
    for x, wx in word:
        row = add[x]
        for cy, py in step:
            if m := wx & py:
                new[row[cy]] |= m
    return [(v, m) for v, m in enumerate(new) if m]


def _prefixes(word, steps, plus):
    """``word + c_1 M[f_1] + ...`` for every (c_1, ...) in product order,
    one ``plus(word, step)`` per word, none for c = 0 (step None; a 0 mask
    is a step, since u & 0 is not u), depth first: one word per level is
    alive."""
    if not steps:
        yield word
        return
    first, *rest = steps
    for step in first:
        prefix = word if step is None else plus(word, step)
        if rest:
            yield from _prefixes(prefix, rest, plus)
        else:
            yield prefix


def _brute_scorer(code):
    """``(matrix, score)``: the generator matrix, whose ``row . M`` is the
    row's codeword, and ``max``: a subspace's count of common zeros (a
    popcount of AND-ed row zero sets) is its zero count.

    By GF(q)-linearity the subcode's common zeros are the intersection of
    its rows' zero sets.  The matrix is read from the trace tables, so the
    recount of each share's best through ``TraceCode.codeword`` checks it.
    """
    return code.generator_matrix(), max


def _dual_scorer(code):
    """``(matrix, score)``: the trace-pairing matrix, and the common-zero
    count of the best subspace of a list through the dual expression.

    A row's message b leaves unmarked the point z*e_h, z in C_0, when
    Tr_{Q->q}(b_h * z) = 0: the matrix is the one slot block of C_0, m
    rows of |C_0| columns, laid t times on the diagonal.  A subspace leaves
    unmarked the pairs (h, z) that ``TraceCode.relabel``'s derivation counts,
    the AND of its rows' zero sets; their number times N/(t*delta) is the
    zero count, checked integral for every count.
    """
    params, t = code.params, code.t
    block = linalg.pairing_matrix(code.field, [code.cyclotomy.class_elements(0)])
    size = len(block[0])
    denom = t * params.delta
    matrix = tuple((0,) * (h * size) + row + (0,) * ((t - 1 - h) * size)
                   for h in range(t) for row in block)

    def score(pops):
        for total in set(pops):  # every count, each once
            if params.N * total % denom:
                raise RuntimeError(f"dual count {total} times N={params.N} "
                                   f"not divisible by t*delta={denom}")
        return params.N * max(pops) // denom

    return matrix, score


# -- exhaustive sweeps ------------------------------------------------------

def _fold_tail(rows):
    """``rows`` with its trailing rows' zero sets AND-folded into the last
    while that holds at most ``_TAIL_CAP`` masks: one AND per combination,
    in product order, so a subspace keeps its position."""
    if not rows:
        return rows
    *heads, last = rows
    while heads and len(heads[-1]) * len(last) <= _TAIL_CAP:
        last = [a & b for a in heads.pop() for b in last]
    return [*heads, last]


def _sweep_units(kernel, score, it, units):
    """Best subspace of the units ``(pat_idx, pattern, lo, hi)``, each the
    slice [lo, hi) of its pattern's first-row choices, given in sweep order:
    ``(zeros, (pat_idx, index), examined)``, plain ints."""
    best, best_pos = -1, None
    examined, masks_of = 0, None
    for pat_idx, pattern, lo, hi in units:
        if masks_of != pat_idx:  # a worker's consecutive units share a pattern
            masks_of = pat_idx
            first, *rest = [kernel.row_masks(pc, free) for pc, free in it.row_columns(pattern)]
            rest = _fold_tail(rest)
        *heads, last = [first[lo:hi], *rest]
        offset = lo * math.prod(map(len, rest))
        # depth first over the prefixes' common zeros
        for pos, common in enumerate(_prefixes(kernel.full, heads, operator.and_)):
            pops = [(common & mask).bit_count() for mask in last]
            zeros = score(pops)
            examined += len(pops)
            if zeros > best:
                # the largest count of common zeros scores highest, for both scores
                best = zeros
                best_pos = (pat_idx, offset + pos * len(last) + pops.index(max(pops)))
    return best, best_pos, examined


def _work_units(it, q, jobs, total):
    """The sweep as ``(size, (pat_idx, pattern, lo, hi))`` units, in sweep order.

    Where later rows multiply each first-row choice, the choices are sliced
    so that a unit holds about total / (jobs * _UNITS_PER_JOB) subspaces, or
    one choice if that is more; a worker's consecutive units of one pattern
    share its masks.  Any other pattern is one unit, since each holder of a
    slice would build its whole mask list, the pattern's whole job.
    """
    cap = -(-total // (jobs * _UNITS_PER_JOB))
    units = []
    for pat_idx, pattern in enumerate(it.patterns()):
        first, *rest = [q ** len(free) for _, free in it.row_columns(pattern)]
        other = math.prod(rest)
        step = max(1, cap // other) if other > 1 else first
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


def sweep_size(params, r, mode, budget=None) -> int:
    """The subspaces a ``mode`` sweep at r visits, [k choose r]_q, once the
    sweep may run: ValueError for a dual sweep with e != t or an r outside
    1..k, BudgetExceeded above ``budget`` (default ``DEFAULT_BUDGET``)."""
    if mode == "dual":
        require_e_equals_t(params, "dual counting")
    tm, q = params.k, params.q
    if not 1 <= r <= tm:
        raise ValueError(f"need 1 <= r <= {tm}, got r={r}")
    total = gaussian_binomial(tm, r, q)
    budget = DEFAULT_BUDGET if budget is None else budget
    if total > budget:
        raise BudgetExceeded(total, budget, f"[{tm} choose {r}]_{q} = {total}")
    return total


def plan_sweeps(params, modes, r_list, budget, jobs, optional=()):
    """``(jobs, refused)`` for a run's ``modes`` sweeps at every r of
    ``r_list``, each sized once by ``sweep_size``, mode by mode and r by r.
    A refusal of a mode in ``optional`` leaves that mode out, listed in
    ``refused``; any other is raised.  ``jobs`` is bounded by the usable
    CPUs, or for ``jobs`` 0 serial below 174,251 subspaces in the largest
    kept sweep, else one per CPU and pattern."""
    sizes, refused = [], []
    for mode in modes:
        try:
            sizes += [sweep_size(params, r, mode, budget) for r in r_list]
        except (ValueError, BudgetExceeded):
            if mode not in optional:
                raise
            refused.append(mode)
    # on 2 CPUs, in timed pairs (BENCH_19.json), --jobs 2 won 21 of 30 at the
    # cutoff ([93,10] over GF(2) at r=2), 7 of 20 at 43,435 and 19 of 20 at 788,035;
    # --jobs 1 never won 9 of 10 here, so it stayed where it was before value planes
    if max(sizes, default=0) < 174_251:
        jobs = jobs or 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, jobs or max(math.comb(params.k, r) for r in r_list)), refused


def _sweep(code, r, mode, budget, jobs) -> GHWResult:
    """Every r-dim subspace, on a kernel built once before the fork."""
    tm, field = code.k, code.field
    total = sweep_size(code.params, r, mode, budget)
    jobs = jobs or 1
    matrix, score = _brute_scorer(code) if mode == "brute" else _dual_scorer(code)
    kernel = _RowMasks(field, matrix)
    it = SubspaceIter(field, tm, r)
    chunks = _deal(_work_units(it, code.q, jobs, total), jobs)
    parts = _fan_out(lambda chunk: _sweep_units(kernel, score, it, chunk), chunks)
    if (examined := sum(part[2] for part in parts)) != total:
        raise RuntimeError(f"sweep visited {examined} subspaces, expected {total}")
    patterns = list(it.patterns())
    best, best_pos, best_witness = -1, None, ()
    for zeros, pos, _ in parts:
        witness = tuple(linalg.vector_from_coords(field, code.t, row)
                        for row in it.pattern_basis(patterns[pos[0]], pos[1]))
        if mode == "brute" and (recount := count_common_zeros(code, witness)) != zeros:
            raise RuntimeError(f"brute witness at r={r} recounts to {recount} "
                               f"common zeros, the sweep scored {zeros}")
        if zeros > best or (zeros == best and pos < best_pos):
            best, best_pos, best_witness = zeros, pos, witness
    return GHWResult(r=r, d_r=code.n - best, common_zeros=best,
                     witness=best_witness, examined=examined)


def ghw_bruteforce(code: TraceCode, r: int, budget=None, jobs: int = 1) -> GHWResult:
    """r-th GHW by direct support minimization over every r-dim subcode;
    the parent recounts every sweep share's best subspace through ``codeword``."""
    return _sweep(code, r, "brute", budget, jobs)


def ghw_dual_sweep(code: TraceCode, r: int, budget=None, jobs: int = 1) -> GHWResult:
    """r-th GHW with the zero count recomputed via the dual expression;
    requires e == t."""
    return _sweep(code, r, "dual", budget, jobs)
