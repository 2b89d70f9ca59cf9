"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Tolerances are pinned here: hierarchy and counting criteria
are exact integer comparisons; character identities use 1e-9, and the
character-sum count comparison uses 1e-6.
"""

import random
import time
from contextlib import contextmanager

import pytest

from ghwlab.codes import check_closed_form_hypotheses
from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.hierarchy import (
    FormulaParams,
    achieving_subspace,
    character_sum_count,
    closed_form_hierarchy,
    max_class_intersection,
    optimize_profile,
)
from ghwlab.linalg import span_elements, vectors_independent
from ghwlab.oracle import count_common_zeros, ghw_bruteforce, ghw_dual_sweep

import helpers
from test_hierarchy import _assert_monotonicity

PERIOD_TOL = 1e-9
CHARSUM_TOL = 1e-6


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {label}")
        raise
    else:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number}] PASS  {label}  ({elapsed:.2f}s)")


def _full_hierarchies(key):
    code = helpers.code(key)
    formula = tuple(closed_form_hierarchy(code.params))
    brute = helpers.brute_hierarchy(key)
    dual = tuple(ghw_dual_sweep(code, r).d_r for r in range(1, code.k + 1))
    return formula, brute, dual


def test_criterion_1_example1():
    with criterion(1, "[8,4] code: n, k, N and hierarchy (2,4,6,8) by all three methods"):
        code = helpers.code("example1")
        p = code.params
        assert (p.n, p.k, p.N) == (8, 4, 4)
        formula, brute, dual = _full_hierarchies("example1")
        assert formula == (2, 4, 6, 8)
        assert brute == (2, 4, 6, 8)
        assert dual == (2, 4, 6, 8)
        assert formula[0] == 2          # minimum distance


def test_criterion_2_example2():
    with criterion(2, "[24,4] code: n, N and hierarchy (6,12,18,24) by all three methods"):
        code = helpers.code("example2")
        p = code.params
        assert (p.n, p.N) == (24, 4)
        formula, brute, dual = _full_hierarchies("example2")
        assert formula == (6, 12, 18, 24)
        assert brute == (6, 12, 18, 24)
        assert dual == (6, 12, 18, 24)


def test_criterion_3_irreducible():
    with criterion(3, "[21,6] one-nonzero code: hypotheses hold, formula == brute for r=1..6"):
        code = helpers.code("irreducible21")
        p = code.params
        assert (p.N, p.delta, p.n) == (3, 3, 21)
        report = check_closed_form_hypotheses(p)
        assert report.all_hold
        assert report.j == 1
        assert (p.s * p.m) // (2 * report.j) == 3
        formula = tuple(closed_form_hierarchy(p))
        brute = helpers.brute_hierarchy("irreducible21")
        assert formula == brute


CRIT4_REGIMES = [((2, 6), (2, 6, 3)), ((7, 2), (7, 2, 4))]


def test_criterion_4_intersection_oracle():
    with criterion(4, "closed-form max intersections equal exhaustive subspace search"):
        for (pp, deg), (q, m, N) in CRIT4_REGIMES:
            ctx = helpers.field(pp, deg)
            fp = helpers.formula_params(q, m, N)
            for l in range(m + 1):
                best = helpers.exhaustive_class_intersections(ctx, N, l)
                expected = max_class_intersection(fp, l)
                assert best == [expected] * N, (q, m, N, l, best)


def test_criterion_5_achieving_subspaces():
    with criterion(5, "constructed subspaces attain the maximum for every l and class"):
        for (pp, deg), (q, m, N) in CRIT4_REGIMES:
            ctx = helpers.field(pp, deg)
            fp = helpers.formula_params(q, m, N)
            cyc = CyclotomyCtx(ctx, N)
            for l in range(m + 1):
                expected = max_class_intersection(fp, l)
                for i in range(N):
                    basis = achieving_subspace(cyc, l, i)
                    count = sum(1 for x in span_elements(ctx, list(basis))
                                if x and cyc.class_index(x) == i)
                    assert count == expected, (q, m, N, l, i, count, expected)


def test_criterion_6_operation_monotonicity():
    with criterion(6, "the four shift-operation monotonicity claims and the inverse claim: zero violations"):
        for q, m, N in helpers.REGIME_CORPUS:
            assert m <= 6
            _assert_monotonicity(helpers.formula_params(q, m, N), t_max=4)


def test_criterion_7_optimizer_equivalence():
    with criterion(7, "closed-form and exhaustive profile optimizers agree on the maximum"):
        for q, m, N in helpers.REGIME_CORPUS:
            assert q**m <= 2**12
            fp = helpers.formula_params(q, m, N)
            for t in range(1, 5):
                for r in range(1, t * m + 1):
                    _, exhaustive = optimize_profile(fp, t, r, "exhaustive")
                    _, closed = optimize_profile(fp, t, r, "closed_form")
                    assert closed == exhaustive, (q, m, N, t, r)


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def test_criterion_8_character_identities():
    with criterion(8, "period sums, semiprimitive integrality, character-sum counts"):
        # periods over every divisor sum to -1
        for pp, deg in helpers.FIELD_CORPUS:
            ctx = helpers.field(pp, deg)
            assert ctx.Q <= 2**12
            for N in _divisors(ctx.Q - 1):
                cyc = CyclotomyCtx(ctx, N)
                total = sum(cyc.period_table().values)
                assert abs(total - (-1)) <= PERIOD_TOL, (pp, deg, N, total)
        # periods are integers in the semiprimitive regimes
        for (pp, deg), N in helpers.SEMIPRIMITIVE_PAIRS:
            ctx = helpers.field(pp, deg)
            for val in CyclotomyCtx(ctx, N).period_table().values:
                assert abs(val.imag) <= PERIOD_TOL, (pp, deg, N, val)
                assert abs(val.real - round(val.real)) <= PERIOD_TOL, (pp, deg, N, val)
        # numeric character-sum counts match exact integer counts
        rng = random.Random(2024)
        checked = 0
        for key in ("example1", "example2"):
            code = helpers.code(key)
            tm = code.k
            for _ in range(60):
                r = rng.randint(1, tm)
                basis = []
                while len(basis) < r:
                    cand = tuple(rng.randrange(code.params.Q) for _ in range(code.t))
                    if any(cand) and vectors_independent(code.field, basis + [cand]):
                        basis.append(cand)
                numeric = character_sum_count(code, basis)
                exact = count_common_zeros(code, basis)
                assert abs(numeric - exact) <= CHARSUM_TOL, (key, basis, numeric, exact)
                checked += 1
        assert checked >= 100


def test_criterion_9_structural_sanity():
    with criterion(9, "every computed hierarchy strictly increases and meets the Singleton bound"):
        for key in ("example1", "example2", "irreducible21", "simplex"):
            code = helpers.code(key)
            hierarchies = [helpers.brute_hierarchy(key)]
            if check_closed_form_hypotheses(code.params).all_hold:
                hierarchies.append(tuple(closed_form_hierarchy(code.params)))
                hierarchies.append(tuple(ghw_dual_sweep(code, r).d_r
                                         for r in range(1, code.k + 1)))
            for hierarchy in hierarchies:
                assert len(hierarchy) == code.k
                for lo, hi in zip(hierarchy, hierarchy[1:]):
                    assert lo < hi, (key, hierarchy)
                for r, d in enumerate(hierarchy, start=1):
                    assert d <= code.n - code.k + r, (key, r, d)
