"""Differential checks of the brute sweep's generator-matrix kernel.

The kernel scores a subspace from per-row support bitmasks; the reference
path recomputes every basis word through ``TraceCode.codeword``.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from ghwlab.codes import TraceCode, derive_params
from ghwlab.linalg import vector_from_coords
from ghwlab.oracle import GHWResult, _brute_scorer, count_common_zeros, ghw_bruteforce
from ghwlab.subspaces import SubspaceIter

from helpers import small_sweeps


@pytest.fixture(scope="module")
def gf4_code():
    # [15,6] over GF(4): p=2, s=2, m=2, e=t=3, a=1; the GF(4) element codes
    # inside GF(16) are scattered, not 0..3
    return TraceCode(derive_params(2, 2, 2, 3, 3, 1))


def _messages(code, rows):
    return tuple(vector_from_coords(code.field, code.t, row) for row in rows)


def reference_brute(code, r):
    """First maximum in enumeration order, every word built by ``codeword``."""
    best, witness, examined = -1, (), 0
    for rows in SubspaceIter(code.field, code.k, r):
        messages = _messages(code, rows)
        support = set()
        for msg in messages:
            support.update(i for i, c in enumerate(code.codeword(msg)) if c)
        zeros = code.n - len(support)
        examined += 1
        if zeros > best:
            best, witness = zeros, messages
    return GHWResult(r=r, d_r=code.n - best, common_zeros=best,
                     witness=witness, examined=examined)


def _assert_kernel_matches(code, dims):
    row_mask, score = _brute_scorer(code)
    for r in dims:
        for rows in SubspaceIter(code.field, code.k, r):
            masks = [row_mask(row) for row in rows]
            assert score(masks) == count_common_zeros(code, _messages(code, rows))


def test_generator_matrix_rows_are_unit_message_words(example1):
    gen = example1.generator_matrix()
    assert len(gen) == example1.k
    for c, word in enumerate(gen):
        unit = [int(i == c) for i in range(example1.k)]
        assert word == example1.codeword(_messages(example1, [unit])[0])


def test_generator_matrix_is_not_cached(example1):
    before = set(vars(example1))
    example1.generator_matrix()
    assert set(vars(example1)) == before


def test_kernel_matches_reference_example1(example1):
    _assert_kernel_matches(example1, range(1, example1.k + 1))


def test_kernel_matches_reference_example2(example2):
    _assert_kernel_matches(example2, range(1, example2.k + 1))


def test_kernel_matches_reference_gf4(gf4_code):
    # every subspace of dimensions 1, 5 and 6; r=2..4 hold 93,093 or more
    # subspaces each, too many for the reference count in a unit test
    _assert_kernel_matches(gf4_code, (1, 5, 6))


@pytest.mark.parametrize("r", [1, 5])
def test_brute_matches_reference_sweep_gf4(gf4_code, r):
    assert ghw_bruteforce(gf4_code, r) == reference_brute(gf4_code, r)


@pytest.mark.parametrize("r", [1, 5])
def test_jobs_do_not_change_witness_gf4(gf4_code, r):
    # six pivot patterns at r=1 and r=5, split over two workers
    assert ghw_bruteforce(gf4_code, r, jobs=2) == ghw_bruteforce(gf4_code, r, jobs=1)


@given(small_sweeps())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_brute_matches_reference_sweep_random(sweep):
    code, r = sweep
    assert ghw_bruteforce(code, r) == reference_brute(code, r)
