"""Differential checks of the dual sweep on the trace-pairing kernel.

The kernel leaves unmarked, for each basis row, the points z*e_h, z in C_0,
that pair to a zero trace with the row's slot, as the zero set of ``row . M``
for the trace-pairing matrix M, t copies of one slot block on the diagonal; the
reference path solves each slot's trace system as a null space and
enumerates it, counting the y with -y in C_0 (``helpers.nullspace_dual_count``).
It keeps the negation on purpose, as an independent route: -C_0 = C_0.
"""

import functools
import operator

import pytest
from hypothesis import HealthCheck, given, settings

from ghwlab import oracle
from ghwlab.cli import main
from ghwlab.codes import TraceCode, derive_params
from ghwlab.linalg import pairing_matrix, vector_from_coords
from ghwlab.oracle import GHWResult, _dual_scorer, ghw_dual_sweep
from ghwlab.subspaces import SubspaceIter

from helpers import all_subspaces, kernel_subspaces, nullspace_dual_count, small_sweeps
import paper_lemmas
from paper_lemmas import count_via_dual

EX1 = ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6"]


@pytest.fixture(scope="module")
def gf4_code():
    # [15,6] over GF(4): p=2, s=2, m=2, e=t=3, a=1
    return TraceCode(derive_params(2, 2, 2, 3, 3, 1))


@pytest.fixture(scope="module")
def code_80_8():
    # [80,8] over GF(3): p=3, m=4, e=t=2, a=1
    return TraceCode(derive_params(3, 1, 4, 2, 2, 1))


# ex1 (p = 7, t = 2), GF(4) with t = 3, [80,8], [364,12] and [61,1] (t = 1, q = Q)
DIAGONAL_CODES = [(7, 1, 2, 2, 2, 6), (2, 2, 2, 3, 3, 1), (3, 1, 4, 2, 2, 1),
                  (3, 1, 6, 2, 2, 2), (3, 10, 1, 1, 1, 968)]


@pytest.mark.parametrize("args", DIAGONAL_CODES, ids=["ex1", "gf4_t3", "80_8", "364_12", "61_1"])
def test_dual_matrix_is_one_slot_block_of_c0_on_the_diagonal(args):
    code = TraceCode(derive_params(*args))
    field, t, c0 = code.field, code.t, code.cyclotomy.class_elements(0)
    assert set(map(field.neg, c0)) == set(c0)  # -1 is in GF(q)^*, inside C_0
    block, size = pairing_matrix(field, [c0]), len(c0)
    assert len(block) == field.m and {len(row) for row in block} == {size}
    matrix = _dual_scorer(code)[0]
    assert len(matrix) == t * field.m
    for h in range(t):
        for j, row in enumerate(block):
            assert matrix[h * field.m + j] == tuple(
                row[i - h * size] if h * size <= i < (h + 1) * size else 0
                for i in range(t * size))


def _messages(code, rows):
    return tuple(vector_from_coords(code.field, code.t, row) for row in rows)


def reference_dual(code, r):
    """First maximum in enumeration order, every count from null spaces."""
    best, witness, examined = -1, (), 0
    for rows in all_subspaces(SubspaceIter(code.field, code.k, r)):
        messages = _messages(code, rows)
        zeros = nullspace_dual_count(code, messages)
        examined += 1
        if zeros > best:
            best, witness = zeros, messages
    return GHWResult(r=r, d_r=code.n - best, common_zeros=best,
                     witness=witness, examined=examined)


def _assert_kernel_matches(code, dims):
    _, score = _dual_scorer(code)
    for r in dims:
        for rows, masks in kernel_subspaces(code, "dual", r):
            common = functools.reduce(operator.and_, masks)
            assert score([common.bit_count()]) == nullspace_dual_count(code, _messages(code, rows))


@pytest.mark.parametrize("key", ["example1", "example2", "irreducible21"])
def test_kernel_matches_reference_every_dimension(request, key):
    code = request.getfixturevalue(key)
    _assert_kernel_matches(code, range(1, code.k + 1))


def test_kernel_matches_reference_gf4(gf4_code):
    # r=2..4 hold 93,093 or more subspaces each
    _assert_kernel_matches(gf4_code, (1, 5, 6))


def test_kernel_matches_reference_80_8(code_80_8):
    # 3280 subspaces at each of r=1 and r=7
    _assert_kernel_matches(code_80_8, (1, 7))


def test_count_via_dual_matches_reference(example2):
    rows = next(all_subspaces(SubspaceIter(example2.field, example2.k, 2)))
    basis = list(_messages(example2, rows))
    assert count_via_dual(example2, basis) == nullspace_dual_count(example2, basis)


@given(small_sweeps())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_dual_matches_reference_sweep_random(sweep):
    code, r = sweep
    assert ghw_dual_sweep(code, r) == reference_dual(code, r)


@pytest.mark.parametrize("r", [1, 5])
def test_jobs_do_not_change_dual_witness_gf4(gf4_code, r):
    assert ghw_dual_sweep(gf4_code, r, jobs=2) == ghw_dual_sweep(gf4_code, r, jobs=1)


@pytest.fixture
def off_by_one(monkeypatch):
    # one more unmarked pair than the truth: on example 1 (N=4, t*delta=12)
    # the true raw count is a multiple of 3, so N times this one never
    # divides by t*delta
    real = oracle._dual_scorer

    def wrong(code):
        matrix, score = real(code)
        return matrix, lambda pops: score([count + 1 for count in pops])

    for module in (oracle, paper_lemmas):  # the sweep's and count_via_dual's name
        monkeypatch.setattr(module, "_dual_scorer", wrong)


def test_divisibility_check_catches_a_wrong_count(example1, off_by_one):
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="not divisible"):
            ghw_dual_sweep(example1, 1, jobs=jobs)
    with pytest.raises(RuntimeError, match="not divisible"):
        count_via_dual(example1, [(1, 0)])


def test_ghw_dual_exits_3_on_a_wrong_count(capsys, off_by_one):
    code = main(["ghw", *EX1, "--method", "dual", "--r", "1", "--no-timing"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not divisible by t*delta=12" in captured.err
