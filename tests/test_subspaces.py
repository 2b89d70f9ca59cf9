import itertools
import math
import tracemalloc

import pytest

from ghwlab.linalg import rref
from ghwlab.subspaces import SubspaceIter, gaussian_binomial, pivot_patterns

import helpers


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 1, 7) == 400
    assert gaussian_binomial(4, 2, 7) == 2850
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    assert gaussian_binomial(3, 4, 2) == 0


def test_pivot_patterns_colex_order():
    pats = list(pivot_patterns(4, 2))
    assert pats == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert list(pivot_patterns(3, 0)) == [()]


def test_pattern_counts_sum_to_gaussian_binomial(f4, f9, f49):
    # the products of the per-row choice counts are the enumerator's
    # partition sizes
    for ctx in (f4, f9, f49):
        q = len(ctx.subfield_q)
        for d in range(7):
            for r in range(d + 1):
                it = SubspaceIter(ctx, d, r)
                total = sum(math.prod(len(rows) for rows in it.row_choices(pat))
                            for pat in it.patterns())
                assert total == gaussian_binomial(d, r, q)


ENUM_CASES = (
    [("f4", 2, d, r) for d in range(1, 7) for r in range(d + 1)]
    + [("f9", 3, d, r) for d in range(1, 6) for r in range(d + 1)]
    + [("f49", 7, d, r) for d in range(1, 5) for r in range(d + 1)]
)


@pytest.mark.parametrize("fixture,q,d,r", ENUM_CASES)
def test_enumeration_count(fixture, q, d, r, request):
    ctx = request.getfixturevalue(fixture)
    it = SubspaceIter(ctx, d, r)
    assert sum(1 for _ in helpers.all_subspaces(it)) == gaussian_binomial(d, r, q)


def test_enumeration_no_duplicates(f4):
    it = SubspaceIter(f4, 4, 2)
    seen = set()
    for rows in helpers.all_subspaces(it):
        key = frozenset(helpers.span_vectors(f4, [list(r) for r in rows]))
        assert key not in seen
        seen.add(key)
    assert len(seen) == gaussian_binomial(4, 2, 2)


def test_rows_are_independent_rref(f9):
    for rows in itertools.islice(helpers.all_subspaces(SubspaceIter(f9, 4, 2)), 50):
        assert len(rref(f9, [list(r) for r in rows])[0]) == 2
        # pivots are 1 with zeros above/below
        reduced, _ = rref(f9, [list(r) for r in rows])
        assert reduced == [list(r) for r in rows]


def test_iter_rejects_bad_dims(f4):
    with pytest.raises(ValueError):
        SubspaceIter(f4, 3, 4)


def test_partition_streams_cover_everything(f49):
    it = SubspaceIter(f49, 3, 1)
    by_pattern = sum(sum(1 for _ in it.iter_pattern(p)) for p in it.patterns())
    assert by_pattern == helpers.subspace_count(it) == gaussian_binomial(3, 1, 7)


def test_row_choices_row_major(f4):
    # pattern (0, 2) in GF(2)^4: row 0 is free at columns 1 and 3, row 1 at 3
    choices = SubspaceIter(f4, 4, 2).row_choices((0, 2))
    assert choices == [
        [(1, 0, 0, 0), (1, 0, 0, 1), (1, 1, 0, 0), (1, 1, 0, 1)],
        [(0, 0, 1, 0), (0, 0, 1, 1)],
    ]
    assert helpers.free_positions((0, 2), 4) == [(0, 1), (0, 3), (1, 3)]


@pytest.fixture(scope="module")
def f4_in_f64():
    # GF(4) inside GF(64): the scalar codes are scattered, not 0..3
    return helpers.field(2, 6, 2)


@pytest.mark.parametrize("fixture,q,d,r",
                         ENUM_CASES + [("f4_in_f64", 4, 4, r) for r in range(5)])
def test_iter_pattern_matches_odometer(fixture, q, d, r, request):
    # the per-row product visits each pattern in the odometer's order, so
    # witnesses (the first maximum in this order) do not move
    ctx = request.getfixturevalue(fixture)
    it = SubspaceIter(ctx, d, r)
    for pattern in it.patterns():
        assert list(it.iter_pattern(pattern)) == list(
            helpers.odometer_pattern(ctx.subfield_q, d, pattern))


@pytest.mark.parametrize("fixture,q,d,r",
                         ENUM_CASES + [("f4_in_f64", 4, 4, r) for r in range(5)])
def test_pattern_basis_decodes_every_position(fixture, q, d, r, request):
    # the mixed-radix decode the sweeps take their witness from, against
    # next(islice(iter_pattern(pattern), pos, None)) at every position of
    # every pattern, read off one walk of the stream
    ctx = request.getfixturevalue(fixture)
    it = SubspaceIter(ctx, d, r)
    for pattern in it.patterns():
        for pos, rows in enumerate(it.iter_pattern(pattern)):
            assert it.pattern_basis(pattern, pos) == rows, (pattern, pos)
        with pytest.raises(IndexError):
            it.pattern_basis(pattern, pos + 1)


def test_pattern_basis_memory_at_r1_gf3_12():
    # pattern (0,) of GF(3)^12 at r = 1 holds 3^11 subspaces: walking
    # iter_pattern to the last one materialized every row choice, 25.7 MiB
    it = SubspaceIter(helpers.field(3, 1), 12, 1)
    last = 3**11 - 1
    tracemalloc.start()
    try:
        rows = it.pattern_basis((0,), last)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == ((1,) + (2,) * 11,)
    assert peak < 16_384
