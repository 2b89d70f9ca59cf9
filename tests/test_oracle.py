import cmath
import random

import pytest

from ghwlab import oracle
from ghwlab.codes import TraceCode, derive_params
from ghwlab.errors import BudgetExceeded
from ghwlab.linalg import rref, vector_coords, vectors_independent
from ghwlab.oracle import (
    count_common_zeros,
    count_via_dual,
    ghw_bruteforce,
    ghw_dual_sweep,
)
from ghwlab.subspaces import SubspaceIter

from helpers import DualContext, frobenius_trace


def test_brute_example1(example1):
    assert [ghw_bruteforce(example1, r).d_r for r in range(1, 5)] == [2, 4, 6, 8]


def test_brute_simplex(simplex):
    assert ghw_bruteforce(simplex, 1).d_r == 2
    assert ghw_bruteforce(simplex, 2).d_r == 3


def test_brute_witness_achieves_value(example1):
    res = ghw_bruteforce(example1, 2)
    assert len(example1.support_union(res.witness)) == res.d_r == 4
    assert res.examined == 2850


def test_brute_deterministic_witness(example1):
    a = ghw_bruteforce(example1, 1)
    b = ghw_bruteforce(example1, 1)
    assert a.witness == b.witness


def test_budget_guard(example1):
    with pytest.raises(BudgetExceeded) as exc:
        ghw_bruteforce(example1, 2, budget=100)
    assert exc.value.count == 2850
    assert "2850" in str(exc.value)
    # the guard admits a sweep of exactly the budget, and not one more
    assert ghw_bruteforce(example1, 2, budget=2850).examined == 2850
    with pytest.raises(BudgetExceeded) as exc:
        ghw_bruteforce(example1, 2, budget=2849)
    assert exc.value.count == 2850


def test_brute_witness_recount_catches_a_wrong_score(example1, monkeypatch):
    real = oracle._brute_scorer

    def off_by_one(code):
        row_mask, score = real(code)
        return row_mask, lambda masks: score(masks) + 1

    monkeypatch.setattr(oracle, "_brute_scorer", off_by_one)
    with pytest.raises(RuntimeError, match="recounts to 6 common zeros, the sweep scored 7"):
        ghw_bruteforce(example1, 1)
    # forked workers recount their own partition's best subspace
    with pytest.raises(RuntimeError, match=r"r=1 recounts to \d+ common zeros"):
        ghw_bruteforce(example1, 1, jobs=2)


def test_examined_check_catches_a_skipped_subspace(example1, monkeypatch):
    class Skipping(SubspaceIter):
        # drops the last choice of every row that has several: on example 1
        # at r=1 the patterns hold 343 + 49 + 7 + 1 = 400 subspaces
        def row_choices(self, pattern):
            return [rows[:-1] if len(rows) > 1 else rows
                    for rows in super().row_choices(pattern)]

    monkeypatch.setattr(oracle, "SubspaceIter", Skipping)
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="sweep visited 397 subspaces, expected 400"):
            ghw_bruteforce(example1, 1, jobs=jobs)


def test_parallel_matches_serial(example1):
    serial = ghw_bruteforce(example1, 2, jobs=1)
    parallel = ghw_bruteforce(example1, 2, jobs=2)
    assert serial.d_r == parallel.d_r
    assert serial.witness == parallel.witness
    assert serial.examined == parallel.examined


def test_count_common_zeros_extremes(example1):
    f = example1.field
    full = [(1, 0), (f.gamma, 0), (0, 1), (0, f.gamma)]
    assert count_common_zeros(example1, full) == 0
    line = ghw_bruteforce(example1, 1).witness
    assert count_common_zeros(example1, list(line)) == 6


def test_common_zeros_singleton_bound(example1):
    rng = random.Random(7)
    f = example1.field
    for _ in range(40):
        r = rng.randint(1, 4)
        basis = []
        while len(basis) < r:
            cand = (rng.randrange(49), rng.randrange(49))
            if any(cand) and vectors_independent(f, basis + [cand]):
                basis.append(cand)
        assert count_common_zeros(example1, basis) <= example1.n - r


def test_dual_space_dimensions(example1):
    dual = DualContext(example1.field, 2)
    rng = random.Random(3)
    for r in (1, 2, 3):
        basis = []
        while len(basis) < r:
            cand = (rng.randrange(49), rng.randrange(49))
            if any(cand) and vectors_independent(example1.field, basis + [cand]):
                basis.append(cand)
        perp = dual.dual_space(basis)
        assert len(perp) == 4 - r
        for x in basis:
            for y in perp:
                assert dual.pair(x, y) == 0


def test_dual_space_of_full_space(example1):
    f = example1.field
    full = [(1, 0), (f.gamma, 0), (0, 1), (0, f.gamma)]
    assert DualContext(f, 2).dual_space(full) == []


def test_double_dual_round_trip(example1):
    f = example1.field
    dual = DualContext(f, 2)
    rng = random.Random(11)
    for _ in range(10):
        basis = []
        while len(basis) < 2:
            cand = (rng.randrange(49), rng.randrange(49))
            if any(cand) and vectors_independent(f, basis + [cand]):
                basis.append(cand)
        ddual = dual.dual_space(dual.dual_space(basis))
        orig_key, _ = rref(f, [vector_coords(f, v) for v in basis])
        dd_key, _ = rref(f, [vector_coords(f, v) for v in ddual])
        assert orig_key == dd_key


def test_orthogonality_identity(example1):
    # averaging the GF(q) character over the dual detects membership in H
    f = example1.field
    dual = DualContext(f, 2)
    rng = random.Random(5)
    from ghwlab.linalg import span_vectors
    basis = []
    while len(basis) < 2:
        cand = (rng.randrange(49), rng.randrange(49))
        if any(cand) and vectors_independent(f, basis + [cand]):
            basis.append(cand)
    perp = dual.dual_space(basis)
    members = set(span_vectors(f, basis))
    perp_elems = span_vectors(f, perp) if perp else [(0, 0)]
    for y in [(1, 2), (0, 0), basis[0], (rng.randrange(49), rng.randrange(49))]:
        total = 0j
        for x in perp_elems:
            val = dual.pair(x, y)
            total += cmath.exp(2j * cmath.pi * frobenius_trace(f, val, 1, f.s) / f.p)
        avg = total / len(perp_elems)
        expected = 1.0 if tuple(y) in members else 0.0
        assert abs(avg - expected) < 1e-9


def test_count_via_dual_requires_e_equals_t():
    # e=3 > t=1 over GF(2^4): dual counting is out of scope there
    params = derive_params(2, 1, 4, 3, 1, 1, (0,))
    assert params.assumptions.all_ok
    code = TraceCode(params)
    with pytest.raises(ValueError, match="e == t"):
        count_via_dual(code, [(1,)])


def test_dual_sweep_requires_e_equals_t():
    # the sweep skips count_via_dual's checks per subspace, so it must make
    # the e == t check itself instead of reporting a wrong hierarchy
    code = TraceCode(derive_params(2, 1, 4, 3, 1, 1, (0,)))
    with pytest.raises(ValueError, match="e == t"):
        ghw_dual_sweep(code, 1)


def test_count_via_dual_rejects_dependent(example1):
    with pytest.raises(ValueError, match="dependent"):
        count_via_dual(example1, [(1, 1), (2, 2)])


def test_count_via_dual_trivial_cases(example1):
    f = example1.field
    # full message space: the dual is zero, so no axis-supported vectors
    full = [(1, 0), (f.gamma, 0), (0, 1), (0, f.gamma)]
    assert count_via_dual(example1, full) == 0


def test_dual_sweep_matches_brute_maxima(example1):
    for r in range(1, 5):
        assert ghw_dual_sweep(example1, r).d_r == ghw_bruteforce(example1, r).d_r


def test_dual_sweep_example2_r2(example2):
    assert ghw_dual_sweep(example2, 2).d_r == 12


def test_dual_count_max_line_example1(example1):
    # max over 1-dim subspaces of the dual recount equals n - d_1 = 6
    res = ghw_dual_sweep(example1, 1)
    assert res.common_zeros == 6
    assert count_via_dual(example1, list(res.witness)) == 6


def test_result_record_shape(example1):
    res = ghw_bruteforce(example1, 1)
    d = res.to_dict()
    assert d["r"] == 1
    assert d["d_r"] == 2
    assert d["subspaces_examined"] == 400
    assert isinstance(d["witness_basis"], list)
