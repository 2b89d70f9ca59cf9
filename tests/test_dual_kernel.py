"""Differential checks of the dual sweep's per-row mask kernel.

The kernel marks, for each basis row, the targets y in -C_0 that pair to a
nonzero trace with the row's slot; the reference path solves each slot's
trace system as a null space and enumerates it
(``helpers.nullspace_dual_count``).
"""

import pytest
from hypothesis import HealthCheck, given, settings

from ghwlab import oracle
from ghwlab.cli import main
from ghwlab.codes import TraceCode, derive_params
from ghwlab.linalg import vector_from_coords
from ghwlab.oracle import GHWResult, _dual_scorer, count_via_dual, ghw_dual_sweep
from ghwlab.subspaces import SubspaceIter

from helpers import nullspace_dual_count, small_sweeps

EX1 = ["--p", "7", "--m", "2", "--e", "2", "--t", "2", "--a", "6"]


@pytest.fixture(scope="module")
def gf4_code():
    # [15,6] over GF(4): p=2, s=2, m=2, e=t=3, a=1
    return TraceCode(derive_params(2, 2, 2, 3, 3, 1))


@pytest.fixture(scope="module")
def code_80_8():
    # [80,8] over GF(3): p=3, m=4, e=t=2, a=1
    return TraceCode(derive_params(3, 1, 4, 2, 2, 1))


def _messages(code, rows):
    return tuple(vector_from_coords(code.field, code.t, row) for row in rows)


def reference_dual(code, r):
    """First maximum in enumeration order, every count from null spaces."""
    best, witness, examined = -1, (), 0
    for rows in SubspaceIter(code.field, code.k, r):
        messages = _messages(code, rows)
        zeros = nullspace_dual_count(code, messages)
        examined += 1
        if zeros > best:
            best, witness = zeros, messages
    return GHWResult(r=r, d_r=code.n - best, common_zeros=best,
                     witness=witness, examined=examined)


def _assert_kernel_matches(code, dims):
    row_mask, score = _dual_scorer(code)
    for r in dims:
        for rows in SubspaceIter(code.field, code.k, r):
            masks = [row_mask(row) for row in rows]
            assert score(masks) == nullspace_dual_count(code, _messages(code, rows))


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
    rows = next(iter(SubspaceIter(example2.field, example2.k, 2)))
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
    real = oracle._unmarked

    def wrong(width, masks):
        return real(width, masks) + 1

    monkeypatch.setattr(oracle, "_unmarked", wrong)


def test_divisibility_check_catches_a_wrong_count(example1, off_by_one):
    with pytest.raises(RuntimeError, match="not divisible"):
        ghw_dual_sweep(example1, 1)
    with pytest.raises(RuntimeError, match="not divisible"):
        count_via_dual(example1, [(1, 0)])


def test_ghw_dual_exits_3_on_a_wrong_count(capsys, off_by_one):
    code = main(["ghw", *EX1, "--method", "dual", "--r", "1", "--no-timing"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not divisible by t*delta=12" in captured.err
