"""The tables behind the gathers of ``character_sum_count``.

``FieldCtx.subfield`` at q = Q, ``FieldCtx.trace_coords`` and
``CyclotomyCtx.class_by_code`` each against its definition, on fields
with p = 2 and odd p, with q < Q and q = Q; the independence test on trace
coordinates against the rank of the coordinates in the basis
(1, gamma, ..., gamma^(m-1)); ``linalg.pairing_matrix`` against the trace
pairing it stands for; the character sum at q = 2, where an image
has a single nonzero multiple; and the memory the gathers and their caches
hold on [61,1] over GF(3^10)."""

import random
import tracemalloc
from functools import reduce

import pytest

from ghwlab.codes import TraceCode, derive_params
from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.fields import FieldCtx, build_field
from ghwlab.hierarchy import character_sum_count
from ghwlab.linalg import pairing_matrix, rref, vector_from_coords, vectors_independent

import helpers
from paper_lemmas import vector_coords

# (p, degree, s): q < Q and q = Q, for p = 2 and odd p; (2, 5, 1) has q = 2
FIELDS = [(2, 4, 1), (2, 4, 2), (2, 4, 4), (2, 5, 1), (2, 5, 5),
          (3, 4, 2), (3, 4, 4), (5, 2, 1), (5, 2, 2), (7, 2, 1)]


def _sorted_subfield(field, sub_degree):
    size = field.p**sub_degree
    step = (field.Q - 1) // (size - 1)
    return tuple(sorted({0} | {field.exp[(k * step) % (field.Q - 1)] for k in range(size - 1)}))


@pytest.mark.parametrize("p, degree, s", FIELDS)
def test_subfield_equals_set_and_sort_definition(p, degree, s):
    field = helpers.field(p, degree, s)
    for sub in range(1, degree + 1):
        if degree % sub == 0:
            assert tuple(field.subfield(sub)) == _sorted_subfield(field, sub), sub


@pytest.mark.parametrize("p, degree, s", FIELDS)
def test_trace_coords_are_injective(p, degree, s):
    field = helpers.field(p, degree, s)
    coords = [field.trace_coords(x) for x in range(field.Q)]
    assert len(set(coords)) == field.Q
    scalars = set(field.subfield_q)
    assert all(len(c) == field.m and set(c) <= scalars for c in coords)


@pytest.mark.parametrize("p, degree, s", FIELDS)
def test_trace_coords_are_additive(p, degree, s):
    field = helpers.field(p, degree, s)
    coords = field.trace_coords
    for x in range(field.Q):
        for y in range(field.Q):
            assert coords(field.add(x, y)) == tuple(map(field.add, coords(x), coords(y))), (x, y)


@pytest.mark.parametrize("p, degree, s", FIELDS)
def test_trace_coords_are_gf_q_homogeneous(p, degree, s):
    field = helpers.field(p, degree, s)
    coords = field.trace_coords
    for c in field.subfield_q:
        for x in range(field.Q):
            assert coords(field.mul(c, x)) == tuple(field.mul(c, v) for v in coords(x)), (c, x)


@pytest.mark.parametrize("p, degree, s", FIELDS)
def test_vectors_independent_matches_primal_rank(p, degree, s):
    # random sets of up to t*m + 1 vectors in F_Q^t, half of them with the
    # first vector a GF(q)-combination of the others
    field = helpers.field(p, degree, s)
    rng = random.Random(f"{p}-{degree}-{s}")
    seen = set()
    for t in (1, 2):
        for _ in range(40):
            count = rng.randint(1, t * field.m + 1)
            vecs = [tuple(rng.randrange(field.Q) for _ in range(t)) for _ in range(count)]
            if count > 1 and rng.random() < 0.5:
                coeffs = [rng.choice(field.subfield_q) for _ in vecs[1:]]
                vecs[0] = tuple(
                    reduce(field.add, (field.mul(c, v[h]) for c, v in zip(coeffs, vecs[1:])), 0)
                    for h in range(t))
            rank = len(rref(field, [vector_coords(field, v) for v in vecs])[0])
            independent = vectors_independent(field, vecs)
            assert independent == (rank == count), vecs
            seen.add(independent)
    assert seen == {True, False}


def test_rref_of_no_rows_is_empty(f49):
    assert rref(f49, []) == ([], [])


# (p, s, m, t): q = Q at m = 1, q = 2 at m = 9, GF(4) in GF(16), t >= 2
@pytest.mark.parametrize("p, s, m, t", [(3, 5, 1, 2), (2, 1, 9, 1), (2, 1, 9, 2), (2, 2, 2, 3)])
def test_pairing_matrix_pairs_messages_with_points_by_the_trace(p, s, m, t):
    # c . column x of the matrix is sum_h Tr_{Q->q}(b_h * x_h), b the message
    # of the coordinates c, from FieldCtx products and the trace table
    field = build_field(p, s * m, subfield_degree=s)
    trace = field.trace_table(s)
    rng = random.Random(f"{p}-{s}-{m}-{t}")
    for _ in range(20):
        c = [rng.choice(field.subfield_q) for _ in range(t * m)]
        b = vector_from_coords(field, t, c)
        points = [[rng.randrange(field.Q) for _ in range(t)] for _ in range(rng.randint(1, 6))]
        matrix = pairing_matrix(field, [list(slot) for slot in zip(*points)])
        assert len(matrix) == t * m
        for x, column in zip(points, zip(*matrix), strict=True):
            paired = reduce(field.add, (trace[field.mul(bh, xh)] for bh, xh in zip(b, x)), 0)
            assert reduce(field.add, map(field.mul, c, column), 0) == paired, (c, x)


@pytest.mark.parametrize("p, degree, s", FIELDS)
def test_periods_by_log_definition(p, degree, s):
    field = helpers.field(p, degree, s)
    group = field.Q - 1
    for N in (n for n in range(1, group + 1) if group % n == 0):
        cyc = CyclotomyCtx(field, N)
        table = cyc.period_table()
        by_code = cyc.class_by_code()
        assert len(by_code) == field.Q and len(table) == N + 1
        assert all(by_code[x] == field.log[x] % N for x in range(1, field.Q)), N
        assert by_code[0] == N
        assert table[by_code[0]] == {0: cyc.class_size}


@pytest.mark.parametrize("params", [
    (2, 1, 4, 3, 3, 1),  # [15,12] over GF(2)
    (2, 1, 6, 1, 1, 3),  # irr21, [21,6] over GF(2)
    (2, 1, 5, 1, 1, 1),  # [31,5] over GF(2), N = 1
])
def test_character_sum_at_q2_is_bit_identical(params):
    code = TraceCode(derive_params(*params))
    assert code.q == 2 and len(code.field.subfield_q) == 2
    rng = random.Random(repr(params))
    for r in range(1, code.k + 1):
        basis = helpers.random_basis(code, r, rng)
        assert (character_sum_count(code, basis)
                == helpers.member_character_sum_count(code, basis)), (r, basis)


def test_gathers_memory_on_gf3_10():
    # [61,1] over GF(3^10), r = 1: per-member lists of codes and periods
    # took 2.92 MB.  The slot's one class is read from the log table, so
    # the first call caches nothing of the field's size; the lookup by log
    # it once read periods from took one 8-byte pointer per field element.
    params = derive_params(3, 10, 1, 1, 1, 968)
    f = params.field
    # a private field context, so the caches are built here whatever ran before
    field = FieldCtx(f.p, f.s, f.m, f.modulus, f.exp, f.log)
    params = params._replace(field=field)
    code = TraceCode(params)
    code.cyclotomy.period_table()
    field.subfield_q
    basis = helpers.random_basis(code, 1, random.Random(61))
    tracemalloc.start()
    try:
        character_sum_count(code, basis)
        cache_bytes, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        character_sum_count(code, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache_bytes < 16_384
    assert peak - before < 1_600_000


def _private_61_1():
    # [61,1] over GF(3^10) on a field context of its own, so its lazily
    # built caches start empty whatever ran before
    params = derive_params(3, 10, 1, 1, 1, 968)
    f = params.field
    return params._replace(field=FieldCtx(f.p, f.s, f.m, f.modulus, f.exp, f.log))


def test_trace_code_at_q_eq_Q_holds_no_field_sized_list():
    # at q = Q the trace onto GF(q) is the identity, range(Q): building the
    # code allocates its 61 evaluation points, not a list of Q codes (2.4 MB
    # with their int objects)
    params = _private_61_1()
    tracemalloc.start()
    try:
        code = TraceCode(params)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code.field.trace_table(10) == range(code.field.Q)
    assert code.field.subfield_q == range(code.field.Q)
    assert peak < 16_384


def test_character_sum_at_r1_builds_nothing_field_sized():
    # [61,1] over GF(3^10), r = 1: the slot uses the image's class q - 1
    # times and the zero row once, with no member enumerated; rotations,
    # gathered tuples and the summands list took 1.42 MB
    code = TraceCode(_private_61_1())
    basis = helpers.random_basis(code, 1, random.Random(61))
    expected = helpers.member_character_sum_count(code, basis)
    assert character_sum_count(code, basis) == expected  # builds the caches
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        value = character_sum_count(code, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == expected
    assert peak - before < 16_384
