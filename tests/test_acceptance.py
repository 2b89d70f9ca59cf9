"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every criterion is an exact comparison: hierarchies and
counts are integers, and the character identities compare the trace counts
that hold each Gauss period.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager

from ghwlab.codes import check_closed_form_hypotheses
from ghwlab.cyclotomy import CyclotomyCtx
from ghwlab.hierarchy import (
    character_sum_count,
    max_class_intersection,
    optimize_profile,
)
from ghwlab.oracle import count_common_zeros, ghw_dual_sweep

import helpers
from helpers import closed_form_hierarchy, span_elements
from paper_lemmas import achieving_subspace, exhaustive_profile
from test_hierarchy import _assert_monotonicity


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
                                if x and helpers.class_index(cyc, x) == i)
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
                    _, exhaustive = exhaustive_profile(fp, t, r)
                    _, closed = optimize_profile(fp, t, r)
                    assert closed == exhaustive, (q, m, N, t, r)


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def test_criterion_8_character_identities():
    with criterion(8, "period sums, semiprimitive integrality, character-sum counts"):
        # the periods over every divisor sum to -1: their trace counts
        # together are F_Q^*'s, every value Q/p times and 0 once fewer
        for pp, deg in helpers.FIELD_CORPUS:
            ctx = helpers.field(pp, deg)
            assert ctx.Q <= 2**12
            full = Counter({k: ctx.Q // pp for k in range(pp)})
            full[0] -= 1
            for N in _divisors(ctx.Q - 1):
                table = CyclotomyCtx(ctx, N).period_table()
                assert sum(table[:N], Counter()) == full, (pp, deg, N)
        # periods are integers in the semiprimitive regimes: each row's
        # nonzero traces have equal counts
        for (pp, deg), N in helpers.SEMIPRIMITIVE_PAIRS:
            ctx = helpers.field(pp, deg)
            for row in CyclotomyCtx(ctx, N).period_table():
                assert len({row[k] for k in range(1, pp)}) == 1, (pp, deg, N, row)
        # character-sum counts are the exact integer counts
        rng = random.Random(2024)
        checked = 0
        for key in ("example1", "example2"):
            code = helpers.code(key)
            tm = code.k
            for _ in range(60):
                basis = helpers.random_basis(code, rng.randint(1, tm), rng)
                numeric = character_sum_count(code, basis)
                exact = count_common_zeros(code, basis)
                assert type(numeric) is int and numeric == exact, (key, basis, numeric, exact)
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
